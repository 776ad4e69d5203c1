"""Exact ring arithmetic, units, enumeration and hom validation."""

import dataclasses
import functools
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meadows import rings
from meadows.enumeration import enumerate_ring_homs
from meadows.errors import DescriptorMismatch, InfiniteCarrier, NotAUnit, RingTooLarge, TableIncomplete, ValueTooLarge

Z2 = rings.Mod(2)
Z3 = rings.Mod(3)
Z5 = rings.Mod(5)
Z6 = rings.Mod(6)
QX = rings.Poly(rings.Q, "x")

FINITE_DESCRIPTORS = [
    rings.ZERO,
    Z2,
    Z3,
    Z6,
    rings.Mod(8),
    rings.Product((Z2, Z2)),
    rings.Product((Z2, Z3)),
]


def v(desc, raw):
    return rings.ring_value(desc, raw)


# -- basic arithmetic ---------------------------------------------------------


def test_rational_addition_exact():
    got = rings.add(v(rings.Q, "1/2"), v(rings.Q, "1/3"))
    assert got == v(rings.Q, "5/6")


def test_mod6_multiplication_wraps():
    assert rings.mul(v(Z6, 4), v(Z6, 3)) == v(Z6, 0)


def test_zero_ring_operations_return_token():
    tok = v(rings.ZERO, None)
    assert rings.add(tok, tok) == tok
    assert rings.mul(tok, tok) == tok


def test_descriptor_mismatch_is_refused():
    with pytest.raises(DescriptorMismatch):
        rings.add(v(Z2, 1), v(Z3, 1))


def test_descriptor_invariants():
    with pytest.raises(ValueError):
        rings.Mod(1)
    with pytest.raises(ValueError):
        rings.Poly(rings.Mod(4))  # 4 is not prime
    with pytest.raises(ValueError):
        rings.Product(())
    with pytest.raises(ValueError):
        rings.Product((rings.ZERO,))


def test_inexact_payloads_are_refused():
    with pytest.raises(ValueError):
        rings.ring_value(rings.Q, 0.1)  # would be 3602879701896397/36028797018963968
    with pytest.raises(ValueError):
        rings.ring_value(rings.Mod(5), True)
    with pytest.raises(ValueError):
        rings.ring_value(rings.Z, False)
    with pytest.raises(ValueError):
        rings.ring_value(rings.Poly(rings.Q), [1, 0.5])
    assert rings.ring_value(rings.Q, "0.1").payload == Fraction(1, 10)


def test_product_coordinates_are_refused_and_coerced_like_values():
    zq = rings.Product((Z3, rings.Q))
    for bad in ((1, 0.5), (True, 1), (1, False)):
        with pytest.raises(ValueError, match="^inexact payload"):
            rings.ring_value(zq, bad)
    with pytest.raises(DescriptorMismatch):
        rings.ring_value(zq, (v(Z2, 1), 1))
    assert rings.ring_value(zq, (v(Z3, 2), "-1/2")).payload == (2, Fraction(-1, 2))
    assert rings.ring_value(zq, (5, v(rings.Q, 3))).payload == (2, Fraction(3))


def test_projection_injective_iff_single_factor():
    assert rings.hom_injective(rings.project(rings.Product((rings.Z,)), 0)) == (True, None)
    assert rings.hom_injective(rings.project(rings.Product((rings.Z, rings.Q)), 1)) == (False, None)


@given(st.fractions(), st.fractions())
def test_rational_ops_agree_with_fraction_oracle(x, y):
    a, b = v(rings.Q, x), v(rings.Q, y)
    assert rings.add(a, b).payload == x + y
    assert rings.mul(a, b).payload == x * y
    assert rings.neg(a).payload == -x


@given(st.integers(), st.integers(min_value=1))
def test_rationals_canonical_lowest_terms(num, den):
    f = v(rings.Q, Fraction(num, den)).payload
    import math

    assert f.denominator > 0
    assert math.gcd(f.numerator, f.denominator) == 1


def test_polynomial_canonical_trailing_zeros_stripped():
    p = v(QX, [Fraction(1), Fraction(0), Fraction(0)])
    assert p.payload == (Fraction(1),)
    assert v(QX, []).payload == ()


# -- units and inverses --------------------------------------------------------


def brute_force_units(desc):
    elems = rings.enumerate_ring(desc)
    one = rings.one_value(desc)
    return {x for x in elems if any(rings.mul(x, w) == one for w in elems)}


def test_integer_5_is_not_a_unit():
    assert not rings.is_unit(v(rings.Z, 5))
    assert rings.is_unit(v(rings.Z, -1))


def test_mod6_units_match_brute_force():
    expected = brute_force_units(Z6)
    for x in rings.enumerate_ring(Z6):
        assert rings.is_unit(x) == (x in expected)
    assert rings.is_unit(v(Z6, 5))


def test_zero_ring_token_is_a_unit():
    assert rings.is_unit(v(rings.ZERO, None))


def test_rational_inverse():
    assert rings.unit_inverse(v(rings.Q, 2)) == v(rings.Q, "1/2")


def test_mod5_inverse_matches_exhaustive_search():
    x = v(Z5, 3)
    expected = next(w for w in rings.enumerate_ring(Z5) if rings.mul(x, w) == rings.one_value(Z5))
    assert rings.unit_inverse(x) == expected == v(Z5, 2)


def test_integer_self_inverses():
    assert rings.unit_inverse(v(rings.Z, -1)) == v(rings.Z, -1)
    with pytest.raises(NotAUnit):
        rings.unit_inverse(v(rings.Z, 5))


@pytest.mark.parametrize("desc", FINITE_DESCRIPTORS)
def test_every_unit_inverts_exhaustively(desc):
    one = rings.one_value(desc)
    for x in rings.enumerate_ring(desc):
        if rings.is_unit(x):
            assert rings.mul(x, rings.unit_inverse(x)) == one
        else:
            with pytest.raises(NotAUnit):
                rings.unit_inverse(x)


def test_poly_units_are_nonzero_constants():
    assert rings.is_unit(v(QX, [Fraction(3)]))
    assert not rings.is_unit(v(QX, [Fraction(0), Fraction(1)]))
    assert not rings.is_unit(v(QX, []))


# -- ring axioms on finite descriptors -----------------------------------------


@pytest.mark.parametrize("desc", FINITE_DESCRIPTORS)
def test_ring_axioms_exhaustive(desc):
    elems = rings.enumerate_ring(desc)
    zero, one = rings.zero_value(desc), rings.one_value(desc)
    for x in elems:
        assert rings.add(x, zero) == x
        assert rings.mul(x, one) == x
        assert rings.add(x, rings.neg(x)) == zero
    for x, y in itertools.product(elems, repeat=2):
        assert rings.add(x, y) == rings.add(y, x)
        assert rings.mul(x, y) == rings.mul(y, x)
    for x, y, z in itertools.product(elems, repeat=3):
        assert rings.add(rings.add(x, y), z) == rings.add(x, rings.add(y, z))
        assert rings.mul(rings.mul(x, y), z) == rings.mul(x, rings.mul(y, z))
        assert rings.mul(x, rings.add(y, z)) == rings.add(rings.mul(x, y), rings.mul(x, z))


# -- enumeration ---------------------------------------------------------------


def test_enumerate_zero_ring():
    assert rings.enumerate_ring(rings.ZERO) == [v(rings.ZERO, None)]


def test_enumerate_mod3():
    assert [x.payload for x in rings.enumerate_ring(Z3)] == [0, 1, 2]


def test_enumerate_product_order():
    got = [x.payload for x in rings.enumerate_ring(rings.Product((Z2, Z2)))]
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_infinite_raises():
    with pytest.raises(InfiniteCarrier):
        rings.enumerate_ring(rings.Z)
    with pytest.raises(InfiniteCarrier):
        rings.enumerate_ring(QX)


# -- index tables against brute force on values ------------------------------------


def brute_force_tables(desc):
    """(elements, index, add, mul) from enumerate_ring and the value operations."""
    elems = rings.enumerate_ring(desc)
    position = {x: i for i, x in enumerate(elems)}
    add = [[position[rings.add(x, y)] for y in elems] for x in elems]
    mul = [[position[rings.mul(x, y)] for y in elems] for x in elems]
    return elems, {x.payload: i for x, i in position.items()}, add, mul


def assert_tables_match(desc):
    t = rings.FiniteTables(desc)
    elems, index, add, mul = brute_force_tables(desc)
    assert (t.elements, t.index, t.add, t.mul) == (elems, index, add, mul)
    assert [t.row("add", i) for i in range(len(elems))] == add and [t.row("mul", i) for i in range(len(elems))] == mul
    assert t.payloads == [x.payload for x in elems] and t.payloads[0] == desc.from_int(0)
    assert t.neg == [index[rings.neg(x).payload] for x in elems]
    assert t.inverse == [index[rings.unit_inverse(x).payload] if rings.is_unit(x) else None for x in elems]


TABLE_DESCRIPTORS = (
    [rings.ZERO]
    + [rings.Mod(n) for n in range(2, 13)]
    + [
        rings.Product((Z2,)),
        rings.Product((Z2, Z3)),
        rings.Product((Z3, Z2)),
        rings.Product((Z2, rings.Product((Z3, Z2)))),
        rings.Product((rings.Product((Z2, Z3)), rings.Mod(4))),
        rings.Product((rings.Product((Z2,)), rings.Product((Z3, rings.Product((Z2, Z2)))))),
    ]
)


@pytest.mark.parametrize("desc", TABLE_DESCRIPTORS, ids=str)
def test_finite_tables_match_brute_force(desc):
    assert_tables_match(desc)


def _products_over(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, min_size=1, max_size=3).map(lambda fs: rings.Product(tuple(fs))),
        max_leaves=4,
    )


def _small_finite_descriptors():
    products = _products_over(st.integers(2, 12).map(rings.Mod))
    return st.one_of(st.just(rings.ZERO), products).filter(lambda d: rings.ring_size(d) <= 64)


def _small_descriptors():
    """The small finite descriptors, and products with Z, Q and polynomial factors."""
    leaves = st.one_of(
        st.integers(2, 12).map(rings.Mod),
        st.sampled_from([rings.Z, rings.Q, rings.Poly(rings.Q), rings.Poly(rings.Mod(3))]),
    )
    infinite = _products_over(leaves).filter(lambda d: not d.finite)
    return st.one_of(_small_finite_descriptors(), infinite)


# the brute-force reference takes ~250 ms on a 64-element product
@settings(deadline=None)
@given(_small_finite_descriptors())
def test_finite_tables_match_brute_force_on_drawn_rings(desc):
    assert_tables_match(desc)


def _holds_a_ring_value(p) -> bool:
    if isinstance(p, rings.RingValue):
        return True
    return isinstance(p, tuple) and any(_holds_a_ring_value(c) for c in p)


@settings(deadline=None)
@given(_small_descriptors(), st.integers(0, 2**32))
def test_payloads_are_raw_at_every_depth(desc, seed):
    rng = random.Random(seed)
    payloads = [desc.from_int(k) for k in (0, 1, -1, 2)]
    payloads += [desc.random(rng) for _ in range(4)]
    payloads += desc.generators()
    payloads += [x.payload for x in rings.sample_pool(desc)]
    pairs = list(zip(payloads, payloads[1:] + payloads[:1]))
    payloads += [desc.add(a, b) for a, b in pairs] + [desc.mul(a, b) for a, b in pairs]
    payloads += [desc.neg(a) for a in payloads]
    payloads += [desc.inverse(a) for a in payloads if desc.is_unit(a)]
    images = []
    if isinstance(desc, rings.Product):
        projections = [rings.project(desc, k) for k in range(len(desc.factors))]
        pair = rings.pair_hom(projections)
        for p in payloads:
            images += [h.fn(p) for h in projections] + [pair.fn(p)]
            assert pair.fn(p) == p
            # a coordinate may be given as a factor's value
            assert desc.canon([rings.RingValue(f, x) for f, x in zip(desc.factors, p)]) == p
    for p in payloads + images:
        assert not _holds_a_ring_value(p), (desc, p)
    for p in payloads:
        assert desc.canon(desc.to_raw(p)) == p, (desc, p)


@settings(deadline=None)
@given(_small_descriptors(), st.integers(0, 2**32), st.integers(1, 24))
def test_power_equals_repeated_multiplication(desc, seed, n):
    rng = random.Random(seed)
    for a in [desc.random(rng), desc.from_int(-1), desc.from_int(2), *desc.generators()]:
        want = a
        for _ in range(n - 1):
            want = desc.mul(want, a)
        got = desc.power(a, n)
        assert got == want, (desc, a, n)
        assert desc.canon(desc.to_raw(got)) == got, (desc, a, n)


def test_finite_tables_refuse_infinite_rings():
    for desc in (rings.Z, QX, rings.Product((Z2, rings.Q))):
        with pytest.raises(InfiniteCarrier):
            rings.FiniteTables(desc)


# -- value hashing and equality ----------------------------------------------------


def test_value_hash_equality_and_repr_are_the_structural_ones():
    values = [
        v(Z6, 4),
        v(rings.ZERO, None),
        v(rings.Q, Fraction(2, 3)),
        v(QX, [1, 0, 2]),
        v(rings.Product((Z2, rings.Product((Z3, Z2)))), (1, (2, 1))),
    ]
    for x in values:
        twin = rings.RingValue(x.ring, x.payload)
        assert hash(x) == hash((x.ring, x.payload)) == hash(twin)
        assert x == twin and not x != twin and x is not twin
        assert repr(x) == f"RingValue(ring={x.ring!r}, payload={x.payload!r})"
    assert v(Z2, 1) != v(Z3, 1) and v(Z2, 1) != 1 and v(Z2, 1).__eq__(1) is NotImplemented
    assert [f.name for f in dataclasses.fields(rings.RingValue)] == ["ring", "payload"]


# -- homomorphisms ---------------------------------------------------------------


def test_reduce_mod_canonical():
    h = rings.reduce_mod(6)
    assert rings.hom_apply(h, v(rings.Z, 14)) == v(Z6, 2)


def test_unit_map_into_mod5():
    h = rings.unit_map(Z5)
    assert rings.hom_apply(h, v(rings.Z, 7)) == v(Z5, 2)


def test_poly_eval_matches_substitution_oracle():
    h = rings.poly_eval_at(QX, Fraction(0))
    p = v(QX, [Fraction(3), Fraction(2)])  # 3 + 2x
    # oracle: substitute and simplify with plain Fraction arithmetic
    point = Fraction(0)
    expected = sum(c * point**k for k, c in enumerate(p.payload))
    assert rings.hom_apply(h, p) == v(rings.Q, expected) == v(rings.Q, 3)
    h7 = rings.poly_eval_at(QX, Fraction(7, 2))
    q = v(QX, [Fraction(1), Fraction(-1), Fraction(2)])
    oracle = sum(c * Fraction(7, 2) ** k for k, c in enumerate(q.payload))
    assert rings.hom_apply(h7, q) == v(rings.Q, oracle)


def test_identity_hom_validates_exhaustively():
    report = rings.hom_validate(rings.identity_hom(Z6))
    assert report.ok
    assert report.mode == "exhaustive"
    additive = next(c for c in report.checks if c.name == "additive")
    assert additive.checked == 36


def test_swap_table_is_not_a_hom():
    h = rings.table_hom(Z2, Z2, [(0, 1), (1, 0)])
    report = rings.hom_validate(h)
    assert not report.ok
    names = [c.name for c in report.failures()]
    assert "preserves_zero" in names


def test_composite_reduction_agrees_with_direct():
    composite = rings.compose_homs(rings.reduce_mod(6), rings.mod_to_mod(6, 3))
    direct = rings.reduce_mod(3)
    import random

    rng = random.Random(7)
    for _ in range(256):
        x = rings.random_value(rings.Z, rng)
        assert rings.hom_apply(composite, x) == rings.hom_apply(direct, x)


def test_compose_applies_left_to_right():
    h = rings.compose_homs(rings.include_rationals(), rings.identity_hom(rings.Q))
    assert rings.hom_apply(h, v(rings.Z, 3)) == v(rings.Q, 3)


def test_table_incomplete():
    h = rings.table_hom(Z3, Z3, [(0, 0), (1, 1)])
    with pytest.raises(TableIncomplete):
        rings.hom_apply(h, v(Z3, 2))


def test_pair_and_project_round_trip():
    prod = rings.Product((Z2, Z3))
    paired = rings.pair_hom((rings.reduce_mod(2), rings.reduce_mod(3)))
    assert paired.target == prod
    img = rings.hom_apply(paired, v(rings.Z, 5))
    assert rings.hom_apply(rings.project(prod, 0), img) == v(Z2, 1)
    assert rings.hom_apply(rings.project(prod, 1), img) == v(Z3, 2)


def test_constant_embed_and_eval_cancel():
    emb = rings.constant_embed(QX)
    ev = rings.poly_eval_at(QX, Fraction(5))
    x = v(rings.Q, "2/7")
    assert rings.hom_apply(ev, rings.hom_apply(emb, x)) == x


def test_collapse_hom():
    h = rings.collapse_hom(rings.Z)
    assert rings.hom_apply(h, v(rings.Z, 42)) == v(rings.ZERO, None)


def test_mod_to_mod_requires_divisibility():
    with pytest.raises(ValueError):
        rings.mod_to_mod(6, 4)


def test_hom_injective_analysis():
    assert rings.hom_injective(rings.include_rationals()) == (True, None)
    verdict, witness = rings.hom_injective(rings.reduce_mod(6))
    assert verdict is False
    assert rings.hom_apply(rings.reduce_mod(6), witness[0]) == rings.hom_apply(
        rings.reduce_mod(6), witness[1]
    )
    verdict, _ = rings.hom_injective(rings.mod_to_mod(6, 3))
    assert verdict is False
    verdict, _ = rings.hom_injective(rings.identity_hom(Z6))
    assert verdict is True


def scanned_pair_injective(h):
    """``PairRule.injective`` by pigeonhole on the images of 0, 1, ..., |target|."""
    if any(rings.hom_injective(c)[0] is True for c in h.rule.components):
        return True, None
    c = h.source.characteristic()
    inputs = (rings.from_int(h.source, k) for k in range(min(rings.ring_size(h.target) + 1, c or math.inf)))
    return False, rings.first_collision(functools.partial(rings.hom_apply, h), inputs)


def _pairs_into_finite_products():
    moduli = range(2, 31)
    for n in moduli:
        yield rings.pair_hom([rings.reduce_mod(n)])
    for n, m in itertools.combinations_with_replacement(moduli, 2):
        yield rings.pair_hom([rings.reduce_mod(n), rings.reduce_mod(m)])
    yield rings.pair_hom([rings.reduce_mod(4), rings.unit_map(rings.Product((Z2, Z3))), rings.reduce_mod(5)])
    for p in (2, 3, 5, 7):
        poly = rings.Poly(rings.Mod(p))
        for a, b in itertools.product(range(p), repeat=2):
            yield rings.pair_hom([rings.poly_eval_at(poly, a), rings.poly_eval_at(poly, b)])


def test_pair_injectivity_from_characteristics_matches_the_scan():
    for h in _pairs_into_finite_products():
        assert rings.hom_injective(h) == scanned_pair_injective(h), h


def test_pair_injectivity_into_a_large_product_needs_no_scan():
    h = rings.pair_hom([rings.reduce_mod(200003), rings.reduce_mod(2)])
    assert rings.hom_injective(h) == (False, (v(rings.Z, 0), v(rings.Z, 400006)))
    poly = rings.Poly(rings.Mod(1000003))
    h = rings.pair_hom([rings.poly_eval_at(poly, 0), rings.poly_eval_at(poly, 1)])
    assert rings.hom_injective(h) == (False, None)


def test_is_field():
    assert rings.is_field(Z5)
    assert not rings.is_field(Z6)
    assert rings.is_field(rings.Q)
    assert not rings.is_field(rings.Z)
    assert not rings.is_field(rings.Product((Z2, Z2)))


# -- table lookup and memoised validation against linear-scan references -------


def scan_apply(h, x):
    """hom_apply with tables read by a linear scan of their graph."""
    if isinstance(h.rule, rings.TableRule):
        for vin, vout in h.rule.graph:
            if vin == x:
                return vout
        raise TableIncomplete(f"no table entry for {x}")
    if isinstance(h.rule, rings.ComposeRule):
        for stage in h.rule.stages:
            x = scan_apply(stage, x)
        return x
    return rings.hom_apply(h, x)


def reference_hom_validate(h):
    """hom_validate with every image recomputed by scan_apply."""
    if rings.is_finite(h.source):
        elems = rings.enumerate_ring(h.source)
        pairs, exhaustive = list(itertools.product(elems, elems)), True
    else:
        (_, pairs), exhaustive = rings._validation_inputs(h.source), False
    report = rings.ValidationReport(subject=str(h))
    zero, one = rings.zero_value(h.source), rings.one_value(h.source)
    try:
        ok = scan_apply(h, zero) == rings.zero_value(h.target)
        report.add("preserves_zero", ok, None if ok else (zero,), checked=1)
        ok = scan_apply(h, one) == rings.one_value(h.target)
        report.add("preserves_one", ok, None if ok else (one,), checked=1)
        for name, op in (("additive", rings.add), ("multiplicative", rings.mul)):
            bad = next(
                (
                    (x, y)
                    for x, y in pairs
                    if scan_apply(h, op(x, y)) != op(scan_apply(h, x), scan_apply(h, y))
                ),
                None,
            )
            report.add(name, bad is None, bad, checked=len(pairs), sampled=not exhaustive)
    except TableIncomplete as exc:
        report.add("table_covers_source", False, (str(exc),))
    return report


def test_table_duplicate_inputs_first_sorted_entry_wins():
    h = rings.table_hom(Z3, Z3, [(1, 2), (0, 0), (1, 1), (2, 1)])
    assert [(i.payload, o.payload) for i, o in h.rule.graph][:3] == [(0, 0), (1, 2), (1, 1)]
    assert rings.hom_apply(h, v(Z3, 1)) == v(Z3, 2) == scan_apply(h, v(Z3, 1))
    unsorted = rings.table_hom(Z2, Z2, [(1, 0), (1, 1)])
    assert rings.hom_apply(unsorted, v(Z2, 1)) == v(Z2, 0)


@settings(deadline=None)
@given(_small_descriptors(), st.integers(0, 2**32))
def test_table_hom_sorts_its_graph_by_the_repr_of_each_input(desc, seed):
    rng = random.Random(seed)
    payloads = [desc.random(rng) for _ in range(6)]
    payloads += [desc.neg(p) for p in payloads] + [desc.from_int(-1)]  # negative fractions, for Q
    raw = [desc.to_raw(p) for p in payloads]
    pairs = list(zip(raw, reversed(raw))) + [(v(desc, raw[0]), raw[1])]  # repeated inputs, and a value
    want = sorted(((v(desc, i), v(desc, o)) for i, o in pairs), key=lambda p: repr(p[0]))
    assert rings.table_hom(desc, desc, pairs).rule.graph == tuple(want)


def test_table_missing_entry_message():
    h = rings.table_hom(Z3, Z3, [(0, 0), (1, 1)])
    with pytest.raises(TableIncomplete, match="^no table entry for 2$"):
        rings.hom_apply(h, v(Z3, 2))


def test_table_rule_is_its_graph_and_the_compiled_map_reads_it():
    a = rings.table_hom(Z2, Z2, [(0, 0), (1, 1)])
    b = rings.table_hom(Z2, Z2, [(1, 1), (0, 0)])
    assert a == b and hash(a) == hash(b) and repr(a.rule) == repr(b.rule)
    # it holds canonical payload pairs of its two rings, both required, and its graph is built from them
    assert [f.name for f in dataclasses.fields(a.rule)] == ["entries", "ends"]
    assert a.rule.entries == ((0, 0), (1, 1)) and a.rule.ends == (Z2, Z2)
    with pytest.raises(TypeError):
        rings.TableRule(a.rule.entries)
    assert a.rule == rings.TableRule(b.rule.entries, (Z2, Z2)) and repr(a.rule) == f"TableRule(graph={a.rule.graph!r})"
    assert [(x, rings.hom_apply(a, x)) for x, _ in a.rule.graph] == list(a.rule.graph)


def test_ring_hom_equality_hash_and_repr_ignore_the_compiled_map():
    a, b = rings.pair_hom([rings.reduce_mod(6), rings.include_rationals()]), rings.pair_hom(
        [rings.reduce_mod(6), rings.include_rationals()]
    )
    assert a.fn is not b.fn
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "fn" not in repr(a)


OTHER_RING_TABLES = {
    "image_of_another_ring": (
        lambda: rings.table_hom(Z3, Z3, [(0, 0), (1, v(Z6, 1))]),
        "^1 is not in Z3$",
    ),
    "input_of_another_ring": (
        lambda: rings.table_hom(Z3, Z3, [(0, 0), (v(Z6, 2), 2)]),
        "^2 is not in Z3$",
    ),
    "rule_of_another_source": (
        lambda: rings.RingHom(Z6, Z3, rings.table_hom(Z3, Z3, [(0, 0), (1, 1), (2, 2)]).rule),
        "^a table of Z3 -> Z3 is not a map Z6 -> Z3$",
    ),
    "rule_of_another_target": (
        lambda: rings.RingHom(Z3, Z6, rings.table_hom(Z3, Z3, [(0, 0), (1, 1), (2, 2)]).rule),
        "^a table of Z3 -> Z3 is not a map Z3 -> Z6$",
    ),
}


@pytest.mark.parametrize("build, message", OTHER_RING_TABLES.values(), ids=OTHER_RING_TABLES.keys())
def test_a_table_of_other_rings_is_refused_when_built(build, message):
    with pytest.raises(DescriptorMismatch, match=message):
        build()


def test_a_hand_built_identity_between_two_rings_is_refused_when_built():
    # its map returns the payload unchanged, which would label an integer as a rational
    with pytest.raises(DescriptorMismatch, match="to itself"):
        rings.RingHom(rings.Z, rings.Q, rings.Identity())


def test_factories_refuse_homs_that_do_not_fit_together():
    with pytest.raises(ValueError, match="no factor 2"):
        rings.project(rings.Product((Z2, Z3)), 2)
    with pytest.raises(ValueError, match="share a source"):
        rings.pair_hom([rings.reduce_mod(2), rings.mod_to_mod(6, 3)])
    with pytest.raises(ValueError, match="cannot chain"):
        rings.compose_homs(rings.reduce_mod(6), rings.mod_to_mod(4, 2))
    with pytest.raises(ValueError, match="cannot chain"):
        rings.compose_homs(rings.reduce_mod(6), rings.identity_hom(Z3), rings.mod_to_mod(6, 2))


VALIDATE_CASES = {
    "identity_z6": rings.identity_hom(Z6),
    "z6_to_z3": rings.mod_to_mod(6, 3),
    "swap_z2": rings.table_hom(Z2, Z2, [(0, 1), (1, 0)]),
    "squash_z4": rings.table_hom(rings.Mod(4), Z2, [(0, 0), (1, 1), (2, 1), (3, 1)]),
    "missing_entry": rings.table_hom(Z3, Z3, [(0, 0), (1, 1)]),
    "additivity_fails_before_missing": rings.table_hom(Z3, Z3, [(0, 1), (1, 1)]),
    "product_swap": rings.table_hom(
        rings.Product((Z2, Z2)),
        rings.Product((Z2, Z2)),
        [((x, y), (y, x)) for x in (0, 1) for y in (0, 1)],
    ),
    "z_to_z2_table": rings.table_hom(rings.Z, Z2, [(0, 0), (1, 1), (-1, 1)]),
    "reduce_z6": rings.reduce_mod(6),
    "include_q": rings.include_rationals(),
    "eval_at_2": rings.poly_eval_at(QX, 2),
    "compose_tables": rings.compose_homs(
        rings.mod_to_mod(6, 2), rings.table_hom(Z2, Z2, [(0, 0), (1, 1)])
    ),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_hom_validate_matches_the_scanning_reference(name):
    h = VALIDATE_CASES[name]
    assert rings.hom_validate(h) == reference_hom_validate(h)


def test_hom_validate_reports_of_the_table_cases():
    missing = rings.hom_validate(VALIDATE_CASES["missing_entry"])
    assert [c.name for c in missing.checks][-1] == "table_covers_source"
    assert missing.checks[-1].witness == ("no table entry for 2",)
    early = rings.hom_validate(VALIDATE_CASES["additivity_fails_before_missing"])
    assert [(c.name, c.passed) for c in early.checks] == [
        ("preserves_zero", False),
        ("preserves_one", True),
        ("additive", False),
        ("table_covers_source", False),
    ]
    assert early.checks[2].witness == (v(Z3, 0), v(Z3, 0))


def test_hom_validate_applies_the_hom_once_per_input():
    # images as target indices (Z3 is no larger than Z6), and as target payloads (Z2 x Z2 is larger than Z2)
    for h in (rings.mod_to_mod(6, 3), rings.pair_hom([rings.identity_hom(Z2), rings.identity_hom(Z2)])):
        calls, real = [], h.fn

        def counting(p, calls=calls, real=real):
            calls.append(p)
            return real(p)

        object.__setattr__(h, "fn", counting)  # the compiled map hom_validate applies
        assert rings.hom_validate(h).ok
        assert sorted(calls) == [x.payload for x in rings.enumerate_ring(h.source)]


# -- homs proved by their rule, and generators ------------------------------------


def _hand_built(src, dst, rule):
    return rings.RingHom(src, dst, rule)


Z4 = rings.Mod(4)
Z3X = rings.Poly(Z3)
Z2Z3 = rings.Product((Z2, Z3))
PROVES = {
    # rule and endpoints that type-check
    "identity": (rings.identity_hom(QX), True),
    "collapse": (rings.collapse_hom(rings.Z), True),
    "include_q": (rings.include_rationals(), True),
    "reduce_z": (rings.reduce_mod(6), True),
    "unit_map_into_product": (rings.unit_map(rings.Product((Z2, rings.Q))), True),
    "reduce_mod_div": (rings.mod_to_mod(6, 3), True),
    "z6_into_z2xz3": (_hand_built(Z6, Z2Z3, rings.ReduceModDiv()), True),
    "z6_into_z3x": (_hand_built(Z6, Z3X, rings.UnitMap()), True),
    "eval": (rings.poly_eval_at(Z3X, 2), True),
    "embed": (rings.constant_embed(QX), True),
    "project": (rings.project(Z2Z3, 1), True),
    "pair": (rings.pair_hom([rings.reduce_mod(2), rings.include_rationals()]), True),
    "compose": (rings.compose_homs(rings.constant_embed(Z3X), rings.poly_eval_at(Z3X, 1)), True),
    # rules that cannot be type-checked, or endpoints that do not fit
    "table": (rings.table_hom(Z2, Z2, [(0, 0), (1, 1)]), False),
    "collapse_into_z2": (_hand_built(Z2, Z2, rings.Collapse()), False),
    "z6_into_z4": (_hand_built(Z6, Z4, rings.ReduceModDiv()), False),
    "z6_into_q": (_hand_built(Z6, rings.Q, rings.UnitMap()), False),
    "q_into_q": (_hand_built(rings.Q, rings.Q, rings.UnitMap()), False),
    "eval_into_another_field": (_hand_built(Z3X, Z2, rings.PolyEvalAt(v(Z3, 1))), False),
    "eval_at_a_foreign_point": (_hand_built(Z3X, Z3, rings.PolyEvalAt(v(Z2, 1))), False),
    "embed_from_another_field": (_hand_built(Z2, Z3X, rings.ConstantEmbed()), False),
    "project_onto_the_wrong_factor": (_hand_built(Z2Z3, Z2, rings.Project(1)), False),
    "project_out_of_range": (_hand_built(Z2Z3, Z3, rings.Project(-1)), False),
    "pair_into_the_wrong_product": (
        _hand_built(Z6, rings.Product((Z3, Z2)), rings.PairRule((rings.mod_to_mod(6, 2), rings.mod_to_mod(6, 3)))),
        False,
    ),
    "pair_with_a_table": (
        rings.pair_hom([rings.mod_to_mod(6, 2), rings.table_hom(Z6, Z3, [(k, k % 3) for k in range(6)])]),
        False,
    ),
    "compose_with_a_table": (
        rings.compose_homs(rings.mod_to_mod(6, 3), rings.table_hom(Z3, Z3, [(0, 0), (1, 1), (2, 2)])),
        False,
    ),
    "compose_out_of_the_wrong_ring": (
        _hand_built(Z4, Z2, rings.ComposeRule((rings.mod_to_mod(6, 3), rings.mod_to_mod(3, 3)))), False
    ),
}


@pytest.mark.parametrize("name", sorted(PROVES))
def test_a_rule_proves_exactly_the_homs_whose_endpoints_type_check(name):
    h, proved = PROVES[name]
    assert h.rule.proves(h) is proved
    proof = rings.hom_proof(h)
    if not proved:
        assert proof is None
        return
    assert rings.hom_validate(h).ok  # a proof is never wrong
    if rings.is_finite(h.source):
        # the same report the exhaustive check gives
        assert proof.checks == rings.hom_validate(h).checks
    else:
        assert [(c.name, c.passed, c.checked, c.sampled) for c in proof.checks] == [
            (check, True, 0, False) for check in ("preserves_zero", "preserves_one", "additive", "multiplicative")
        ]
        assert all(type(h.rule).__name__ in c.note for c in proof.checks)


SMALL = [rings.ZERO, Z2, Z3, Z4, Z6, rings.Product((Z2, Z2)), Z2Z3, rings.Product((Z2, rings.Product((Z2, Z2))))]


@pytest.mark.parametrize("src", SMALL, ids=str)
def test_homs_that_agree_on_the_generators_are_equal(src):
    gens = src.generators()
    elems = rings.enumerate_ring(src)
    for dst in SMALL:
        homs = enumerate_ring_homs(src, dst)
        for f, g in itertools.product(homs, repeat=2):
            on_gens = all(f.fn(x) == g.fn(x) for x in gens)
            assert on_gens == all(rings.hom_apply(f, x) == rings.hom_apply(g, x) for x in elems)


def test_generators_of_each_descriptor():
    assert rings.Z.generators() == rings.Q.generators() == Z6.generators() == rings.ZERO.generators() == []
    assert QX.generators() == [(Fraction(0), Fraction(1))]
    zero, one = v(Z2, 0), v(Z2, 1)
    x, zx = v(Z3X, [0, 1]), v(Z3X, [])
    assert rings.Product((Z2, Z3X)).generators() == [
        (one.payload, zx.payload),
        (zero.payload, v(Z3X, [1]).payload),
        (zero.payload, x.payload),
    ]


def test_enumeration_refuses_a_ring_too_large_to_list():
    for desc in (rings.Mod(2**20 + 1), rings.Product((rings.Mod(2**10), rings.Mod(2**10), Z2))):
        with pytest.raises(RingTooLarge, match=re.escape(str(desc))):
            rings.enumerate_ring(desc)
        with pytest.raises(RingTooLarge):
            rings.FiniteTables(desc)
    assert len(rings.enumerate_ring(rings.Product((rings.Mod(2**10), rings.Mod(2**10))))) == 2**20
    # a finite factor of an infinite product is listed only under the same limit
    with pytest.raises(RingTooLarge, match=re.escape(str(rings.Mod(2**20 + 1)))):
        rings.sample_pool(rings.Product((rings.Mod(2**20 + 1), rings.Z)))


def _printable(x) -> bool:
    try:
        str(x)
    except ValueError:  # past the int/str digit limit
        return False
    return True


def test_a_power_is_refused_only_when_it_could_not_be_printed():
    # 2^n has n + 1 bits, so for a base of one bit (2, -2, 1/2) the bound is
    # exact: refused exactly when printing would fail; for other bases a
    # refused power is one that could not be printed
    centre = sys.get_int_max_str_digits() * 10 // 3  # a little past the limit's bit length
    exact = [(rings.Z, 2), (rings.Z, -2), (rings.Q, Fraction(1, 2))]
    sound = [(rings.Z, 3), (rings.Q, Fraction(-3, 2)), (rings.Q, Fraction(7, 5))]
    for desc, base in exact + sound:
        for n in range(centre - 80, centre + 20):
            try:
                got = desc.power(base, n)
            except ValueTooLarge as exc:
                assert str(exc).startswith(f"a value of {desc} would have a bit length over "), exc
                assert not _printable(base**n), (desc, base, n)
            else:
                assert got == base**n
                if (desc, base) in exact:
                    assert _printable(got), (desc, base, n)


def test_the_power_bound_follows_the_digit_limit_and_its_default_when_off():
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(40_000)
        assert rings.Z.power(2, 100_000) == 2**100_000
        sys.set_int_max_str_digits(0)  # no limit: the default one bounds powers
        with pytest.raises(ValueTooLarge):
            rings.Z.power(2, 100_000)
    finally:
        sys.set_int_max_str_digits(old)


def test_powers_that_stay_small_evaluate_and_growing_ones_are_refused_by_their_ring():
    huge = 10**12
    assert [rings.Z.power(a, huge) for a in (0, 1, -1)] == [0, 1, 1]
    assert rings.Z.power(-1, huge + 1) == -1
    assert rings.Q.power(Fraction(-1), huge + 1) == -1
    assert rings.Mod(7).power(3, huge) == pow(3, huge, 7)
    assert rings.ZERO.power(rings.TOK, huge) is rings.TOK
    z3x = rings.Poly(Z3)
    assert z3x.power((2,), huge) == (1,)  # a constant keeps degree 0
    with pytest.raises(ValueTooLarge, match=re.escape("a value of Z3[x] would have a degree over ")):
        z3x.power((1, 1), 10**6)
    with pytest.raises(ValueTooLarge, match="^a value of Z would have a bit length over "):
        rings.Product((Z2, rings.Z)).power((1, 3), 10**7)


def test_a_product_coordinate_too_large_to_print_is_named_by_its_factor():
    big = v(rings.Product((Z2, rings.Z)), (1, 10**5000))
    with pytest.raises(ValueTooLarge, match=r"^a value of Z is past"):
        str(big)


def test_tables_past_the_cell_bound_are_refused():
    for desc in (rings.Mod(2049), rings.Product((rings.Mod(3), rings.Mod(683)))):  # 2049² > 2²²
        tables = rings.FiniteTables(desc)
        for op in ("add", "mul"):
            with pytest.raises(RingTooLarge, match=re.escape(f"{desc} has 2049 elements: its tables would have 4198401 cells")):
                getattr(tables, op)
