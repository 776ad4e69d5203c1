"""Ring arithmetic checked against sympy, which shares no code with the library.

Q is checked against ``sympy.Rational``, Z_n against ``sympy.igcd`` and
``sympy.mod_inverse``, Q[x] and Z_p[x] against ``sympy.Poly`` over QQ and
GF(p), and product rings coordinatewise against the oracles of their
factors.  Each case builds its operands twice from the same raw data, as
ring values and as sympy objects, and compares the results as payloads.
"""

from __future__ import annotations

import operator
from fractions import Fraction

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
        return tuple(rings.RingValue(o.desc, o.lower(s)) for o, s in zip(self.factors, ss))

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
