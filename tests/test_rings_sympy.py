"""Ring arithmetic checked against sympy, which shares no code with the library.

Q is checked against ``sympy.Rational``, Z_n against ``sympy.igcd`` and
``sympy.mod_inverse``, Q[x] and Z_p[x] against ``sympy.Poly`` over QQ and
GF(p), and product rings coordinatewise against the oracles of their
factors.  Each case builds its operands twice from the same raw data, as
ring values and as sympy objects, and compares the results as payloads.

Hom application (``rings.hom_apply``, which runs each rule's compiled map)
is checked the same way, rule by rule: reductions and unit maps against
``%`` on ``sympy.Integer``, the inclusion of Z against ``sympy.Rational``,
evaluation against ``sympy.Poly.eval`` over QQ and GF(p), the constant
embedding, projections and pairings coordinate by coordinate, tables
against the dict they were built from, and chains of ``compose_homs``
against the composite of their stages' oracles.  Injectivity verdicts on
infinite sources (``rings.hom_injective``, decided from each rule's
structure) are checked on the same oracles: two inputs named as colliding
have equal sympy images, and a hom called injective shows no collision
among seeded inputs.  The primality test behind ``prime_field`` is checked
against ``sympy.isprime``.
"""

from __future__ import annotations

import functools
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from meadows import rings

X = sympy.Symbol("x")
PRIMES = (2, 3, 5, 7, 11, 13)
RATIONALS = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)


class SympyOracle:
    """A ring as sympy computes it; ``lift`` and ``lower`` convert payloads."""

    add, mul, neg = operator.add, operator.mul, operator.neg


class RationalOracle(SympyOracle):
    desc = rings.Q
    raw = RATIONALS

    def lift(self, raw):
        return sympy.Rational(raw.numerator, raw.denominator)

    def lower(self, s):
        return Fraction(int(s.p), int(s.q))

    def is_unit(self, s):
        return s != 0

    def inverse(self, s):
        return 1 / s


class ResidueOracle(SympyOracle):
    def __init__(self, n):
        self.n = n
        self.desc = rings.Mod(n)
        self.raw = st.integers(-10 * n, 10 * n)

    def lift(self, raw):
        return sympy.Integer(raw)

    def lower(self, s):
        return int(s % self.n)

    def is_unit(self, s):
        return sympy.igcd(s, self.n) == 1

    def inverse(self, s):
        return sympy.mod_inverse(s, self.n)


class PolyOracle(SympyOracle):
    """F[x] as ``sympy.Poly`` over QQ or GF(p); payloads ascend, sympy descends."""

    def __init__(self, base):
        self.desc = rings.Poly(base)
        if base == rings.Q:
            self.coeff = RationalOracle()
            self.domain = {"domain": sympy.QQ}
        else:
            self.coeff = ResidueOracle(base.n)
            self.domain = {"modulus": base.n}
        self.raw = st.lists(self.coeff.raw, max_size=5)

    def lift(self, raw):
        return sympy.Poly([self.coeff.lift(c) for c in reversed(raw)] or [0], X, **self.domain)

    def lower(self, s):
        coeffs = [self.coeff.lower(c) for c in reversed(s.all_coeffs())]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def is_unit(self, s):
        return s.degree() == 0  # a nonzero constant; the zero polynomial has degree -oo

    def inverse(self, s):
        return sympy.Poly(1, X, **self.domain).exquo(s)


class ProductOracle:
    """A product ring, coordinate by coordinate on its factors' oracles."""

    def __init__(self, factors):
        self.factors = factors
        self.desc = rings.Product(tuple(o.desc for o in factors))
        self.raw = st.tuples(*(o.raw for o in factors))

    def _each(self, name, *coords):
        return tuple(getattr(o, name)(*args) for o, *args in zip(self.factors, *coords))

    def lift(self, raw):
        return self._each("lift", raw)

    def lower(self, ss):
        return self._each("lower", ss)

    def add(self, a, b):
        return self._each("add", a, b)

    def mul(self, a, b):
        return self._each("mul", a, b)

    def neg(self, a):
        return self._each("neg", a)

    def is_unit(self, ss):
        return all(self._each("is_unit", ss))

    def inverse(self, ss):
        return self._each("inverse", ss)


RESIDUES = st.integers(2, 60).map(ResidueOracle)
POLYS = st.sampled_from((rings.Q,) + tuple(rings.Mod(p) for p in PRIMES)).map(PolyOracle)
FACTORS = st.one_of(st.just(RationalOracle()), RESIDUES, POLYS)
PRODUCTS = st.lists(FACTORS, min_size=1, max_size=3).map(ProductOracle)


def assert_matches_oracle(oracle, data):
    a, b = data.draw(oracle.raw), data.draw(oracle.raw)
    x, y = rings.ring_value(oracle.desc, a), rings.ring_value(oracle.desc, b)
    sa, sb = oracle.lift(a), oracle.lift(b)
    assert x.payload == oracle.lower(sa)
    assert rings.add(x, y).payload == oracle.lower(oracle.add(sa, sb))
    assert rings.mul(x, y).payload == oracle.lower(oracle.mul(sa, sb))
    assert rings.neg(x).payload == oracle.lower(oracle.neg(sa))
    assert rings.is_unit(x) == oracle.is_unit(sa)
    if oracle.is_unit(sa):
        assert rings.unit_inverse(x).payload == oracle.lower(oracle.inverse(sa))


@settings(deadline=None)
@given(st.data())
def test_rationals_match_sympy_rational(data):
    assert_matches_oracle(RationalOracle(), data)


@settings(deadline=None)
@given(RESIDUES, st.data())
def test_residues_match_sympy_igcd_and_mod_inverse(oracle, data):
    assert_matches_oracle(oracle, data)


@settings(deadline=None)
@given(POLYS, st.data())
def test_polynomials_match_sympy_poly_over_qq_and_gf_p(oracle, data):
    assert_matches_oracle(oracle, data)


@settings(deadline=None)
@given(PRODUCTS, st.data())
def test_products_match_their_factors_coordinatewise(oracle, data):
    assert_matches_oracle(oracle, data)


# ---------------------------------------------------------------------------
# hom application

INTEGERS = st.integers(-10**6, 10**6)
MODULI = st.integers(2, 60)


def image(h, desc, raw):
    """Payload of the image under ``h`` of the element of ``desc`` built from ``raw``."""
    return rings.hom_apply(h, rings.ring_value(desc, raw)).payload


@settings(deadline=None)
@given(MODULI, INTEGERS)
def test_reductions_and_unit_maps_out_of_z_match_sympy_mod(n, raw):
    want = int(sympy.Integer(raw) % n)
    assert image(rings.reduce_mod(n), rings.Z, raw) == want
    assert image(rings.unit_map(rings.Mod(n)), rings.Z, raw) == want


@settings(deadline=None)
@given(MODULI, MODULI, INTEGERS)
def test_reduce_mod_div_matches_sympy_mod(m, k, raw):
    n = m * k
    assert image(rings.mod_to_mod(n, m), rings.Mod(n), raw) == int(sympy.Integer(raw) % n % m)


@settings(deadline=None)
@given(INTEGERS)
def test_inclusion_of_z_and_unit_map_into_q_match_sympy_rational(raw):
    want = RationalOracle().lower(sympy.Rational(raw))
    assert image(rings.include_rationals(), rings.Z, raw) == want
    assert image(rings.unit_map(rings.Q), rings.Z, raw) == want


@settings(deadline=None)
@given(POLYS, st.data())
def test_evaluation_matches_sympy_poly_eval(oracle, data):
    raw, point = data.draw(oracle.raw), data.draw(oracle.coeff.raw)
    h = rings.poly_eval_at(oracle.desc, point)
    value = oracle.lift(raw).eval(oracle.coeff.lift(point))
    assert image(h, oracle.desc, raw) == oracle.coeff.lower(value)


@settings(deadline=None)
@given(POLYS, st.data())
def test_constant_embedding_matches_a_constant_sympy_poly(oracle, data):
    raw = data.draw(oracle.coeff.raw)
    want = oracle.lower(sympy.Poly(oracle.coeff.lift(raw), X, **oracle.domain))
    assert image(rings.constant_embed(oracle.desc), oracle.desc.base, raw) == want


@settings(deadline=None)
@given(PRODUCTS, st.data())
def test_projections_match_the_factor_oracles(oracle, data):
    raw = data.draw(oracle.raw)
    for k, factor in enumerate(oracle.factors):
        got = image(rings.project(oracle.desc, k), oracle.desc, raw)
        assert got == factor.lower(factor.lift(raw[k]))


@settings(deadline=None)
@given(st.lists(MODULI, min_size=1, max_size=4), st.booleans(), INTEGERS)
def test_pairings_match_their_components_coordinatewise(moduli, with_q, raw):
    components = [rings.reduce_mod(n) for n in moduli] + ([rings.include_rationals()] if with_q else [])
    pair = rings.pair_hom(components)
    got = image(pair, rings.Z, raw)
    want = [int(sympy.Integer(raw) % n) for n in moduli] + ([Fraction(raw)] if with_q else [])
    assert list(got) == want
    assert list(pair.target.factors) == [h.target for h in components]


@settings(deadline=None)
@given(MODULI, MODULI, st.data())
def test_tables_match_the_mapping_they_were_built_from(n, m, data):
    mapping = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    h = rings.table_hom(rings.Mod(n), rings.Mod(m), enumerate(mapping))
    assert [image(h, rings.Mod(n), k) for k in range(n)] == mapping


@settings(deadline=None)
@given(POLYS, st.data())
def test_identity_and_collapse(oracle, data):
    raw = data.draw(oracle.raw)
    assert image(rings.identity_hom(oracle.desc), oracle.desc, raw) == oracle.lower(oracle.lift(raw))
    assert image(rings.collapse_hom(oracle.desc), oracle.desc, raw) == rings.TOK


@settings(deadline=None)
@given(MODULI, MODULI, MODULI, INTEGERS)
def test_chains_of_reductions_match_sympy_mod(a, b, c, raw):
    # Z -> Z_abc -> Z_ab -> Z_a, and the same through a pairing and a projection
    n = a * b * c
    chain = rings.compose_homs(rings.reduce_mod(n), rings.mod_to_mod(n, a * b), rings.mod_to_mod(a * b, a))
    assert image(chain, rings.Z, raw) == int(sympy.Integer(raw) % a)
    pair = rings.pair_hom([rings.reduce_mod(n), rings.include_rationals()])
    for k, want in enumerate((int(sympy.Integer(raw) % n), RationalOracle().lower(sympy.Rational(raw)))):
        assert image(rings.compose_homs(pair, rings.project(pair.target, k)), rings.Z, raw) == want


@settings(deadline=None)
@given(POLYS, st.data())
def test_chains_through_polynomials_match_sympy_poly(oracle, data):
    # F -> F[x] -> F is the identity; F[x] -> F -> F[x] keeps the value at the point
    coeff, point, raw = data.draw(oracle.coeff.raw), data.draw(oracle.coeff.raw), data.draw(oracle.raw)
    embed, at = rings.constant_embed(oracle.desc), rings.poly_eval_at(oracle.desc, point)
    base = oracle.desc.base
    assert image(rings.compose_homs(embed, at), base, coeff) == oracle.coeff.lower(oracle.coeff.lift(coeff))
    value = oracle.lift(raw).eval(oracle.coeff.lift(point))
    want = oracle.lower(sympy.Poly(value, X, **oracle.domain))
    assert image(rings.compose_homs(at, embed), oracle.desc, raw) == want
    if base == rings.Q:
        chain = rings.compose_homs(rings.include_rationals(), embed, at)
        assert image(chain, rings.Z, 7) == Fraction(7)


# -- injectivity verdicts on infinite sources against sympy images ---------------


def reduction_oracle(n):
    return lambda raw: int(sympy.Integer(raw) % n)


def inclusion_oracle(raw):
    return RationalOracle().lower(sympy.Rational(raw))


def evaluation_oracle(oracle, point):
    return lambda raw: oracle.coeff.lower(oracle.lift(raw).eval(oracle.coeff.lift(point)))


def embedding_oracle(oracle):
    return lambda raw: oracle.lower(sympy.Poly(oracle.coeff.lift(raw), X, **oracle.domain))


def projection_oracle(oracle, k):
    factor = oracle.factors[k]
    return lambda raw: factor.lower(factor.lift(raw[k]))


def pairing_oracle(components):
    """Components are (hom, oracle) pairs; the image is a tuple of their payloads."""
    return lambda raw: tuple(o(raw) for _h, o in components)


def chain_oracle(*oracles):
    return lambda raw: functools.reduce(lambda acc, o: o(acc), oracles, raw)


def injectivity_cases():
    """(hom on an infinite source, its image on raw payloads as sympy computes it)."""
    q_poly, f3_poly = PolyOracle(rings.Q), PolyOracle(rings.Mod(3))
    mixed = ProductOracle([RationalOracle(), ResidueOracle(3)])
    single = ProductOracle([RationalOracle()])
    cases = [(rings.include_rationals(), inclusion_oracle), (rings.unit_map(rings.Q), inclusion_oracle)]
    for n in (2, 6, 12):
        cases += [(rings.reduce_mod(n), reduction_oracle(n)), (rings.unit_map(rings.Mod(n)), reduction_oracle(n))]
    for oracle, points in ((q_poly, (0, Fraction(2), Fraction(-1, 3))), (f3_poly, (0, 1, 2))):
        cases += [(rings.poly_eval_at(oracle.desc, c), evaluation_oracle(oracle, c)) for c in points]
    cases.append((rings.constant_embed(q_poly.desc), embedding_oracle(q_poly)))
    cases += [(rings.project(mixed.desc, k), projection_oracle(mixed, k)) for k in (0, 1)]
    cases.append((rings.project(single.desc, 0), projection_oracle(single, 0)))
    finite_pair = [(rings.reduce_mod(4), reduction_oracle(4)), (rings.reduce_mod(6), reduction_oracle(6))]
    rational_pair = [(rings.reduce_mod(4), reduction_oracle(4)), (rings.include_rationals(), inclusion_oracle)]
    evaluations = [(rings.poly_eval_at(f3_poly.desc, c), evaluation_oracle(f3_poly, c)) for c in (0, 1)]
    for components in (finite_pair, rational_pair, evaluations):
        cases.append((rings.pair_hom([h for h, _ in components]), pairing_oracle(components)))
    embed = rings.constant_embed(q_poly.desc)
    cases += [
        (rings.compose_homs(rings.include_rationals(), embed), chain_oracle(inclusion_oracle, embedding_oracle(q_poly))),
        (
            rings.compose_homs(rings.reduce_mod(12), rings.mod_to_mod(12, 4)),
            chain_oracle(reduction_oracle(12), reduction_oracle(4)),
        ),
        (
            rings.compose_homs(embed, rings.poly_eval_at(q_poly.desc, 2)),
            chain_oracle(embedding_oracle(q_poly), evaluation_oracle(q_poly, 2)),
        ),
    ]
    return cases


INJECTIVITY_CASES = injectivity_cases()


def test_injectivity_cases_reach_every_verdict():
    verdicts = [rings.hom_injective(h) for h, _ in INJECTIVITY_CASES]
    assert all(not rings.is_finite(h.source) for h, _ in INJECTIVITY_CASES)
    assert {v for v, _ in verdicts} == {True, False, None}
    assert any(v is False and w is not None for v, w in verdicts)


@pytest.mark.parametrize("h, oracle", INJECTIVITY_CASES, ids=[str(h) for h, _ in INJECTIVITY_CASES])
def test_injectivity_verdicts_match_sympy_images(h, oracle):
    verdict, witness = rings.hom_injective(h)
    if verdict is False and witness is not None:
        a, b = witness
        assert a.ring == b.ring == h.source and a != b
        assert oracle(a.payload) == oracle(b.payload)
        assert rings.hom_apply(h, a).payload == oracle(a.payload)
    if verdict is True:
        rng = random.Random(str(h))
        inputs = {rings.random_value(h.source, rng).payload for _ in range(300)}
        inputs |= {v.payload for v in rings.sample_pool(h.source)}
        images = {oracle(p) for p in inputs}
        assert len(images) == len(inputs)


# -- primality: deterministic Miller-Rabin against sympy.isprime -----------------

# composites that fool Miller-Rabin on the first t prime bases, t = 1..12, and
# Carmichael numbers
PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461, 561, 1105, 1729, 2465, 2821, 6601, 8911,
)


def test_is_prime_matches_sympy_below_ten_thousand_and_on_pseudoprimes():
    for n in list(range(-2, 10_000)) + list(PSEUDOPRIMES):
        assert rings._is_prime(n) == sympy.isprime(n), n


@settings(deadline=None)
@given(st.integers(2, rings.PRIME_TEST_LIMIT - 1))
def test_is_prime_matches_sympy_up_to_its_bound(n):
    assert rings._is_prime(n) == sympy.isprime(n)


@settings(deadline=None)
@given(st.integers(2, 2**40), st.integers(2, 2**40))
def test_is_prime_on_primes_and_their_products(a, b):
    p, q = sympy.nextprime(a), sympy.nextprime(b)
    assert rings._is_prime(p) and rings._is_prime(q)
    assert not rings._is_prime(p * q)


def test_is_prime_refuses_past_its_bound():
    assert not sympy.isprime(rings.PRIME_TEST_LIMIT)  # the least pseudoprime to all 13 bases
    with pytest.raises(ValueError):
        rings._is_prime(rings.PRIME_TEST_LIMIT)
    with pytest.raises(ValueError):
        rings.Poly(rings.Mod(rings.PRIME_TEST_LIMIT))
    assert rings.Poly(rings.Mod(sympy.prevprime(rings.PRIME_TEST_LIMIT))).base.prime_field()
