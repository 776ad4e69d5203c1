"""Hom lifts and hom searches on the carrier index against brute force.

``structural_lift`` is the lift that splits a carrier map by node, builds
one table hom per node and hands them to ``hom_build``.
``hom_from_carrier_map`` decides the carrier equations on the two carrier
indexes instead, and falls back to the structural lift for everything it
does not accept.  On every carrier map between small corpus meadows (at
most ``MAX_MAPS`` of them per pair) the two must accept the same maps, with
equal lattice maps (in the same order) and equal ring-map graphs, and
refuse the rest with the same exception class and message.

``two_sided_search`` is the hom search that checks each popped element
against every assigned one in both orders, (x, y) and (y, x).
``_search_maps`` checks (x, y) only, on commutative tables; it must return
the maps that a brute-force filter on the tables keeps, in the same order,
and each map with the two-sided search's item order.
"""

from __future__ import annotations

import itertools

import pytest

from meadows import rings
from meadows.enumeration import _search_maps, enumerate_meadow_hom_maps, enumerate_ring_homs
from meadows.errors import MeadowError, NotAHomomorphism, NotLatticeHom
from meadows.lattice import DirectedLattice, Lattice
from meadows.meadow import Meadow, MeadowElement, PreMeadow, build_meadow
from meadows.morphisms import adjoin_error, hom_build, hom_from_carrier_map

import corpus

MAX_MAPS = 3**7


def structural_lift(src, dst, mapping):
    """The hom of a carrier map: one table hom per node, then ``hom_build``."""
    by_node: dict = {}
    for x in src.elements():
        by_node.setdefault(x.node, []).append(x)
    lattice_map, ring_maps = {}, {}
    for z, elems in by_node.items():
        images = {mapping[x].node for x in elems}
        if len(images) != 1:
            raise NotLatticeHom(f"component at {z!r} is split across nodes {images}")
        lattice_map[z] = next(iter(images))
        pairs = [(x.value, mapping[x].value) for x in elems]
        ring_maps[z] = rings.table_hom(src.dl.ring_at[z], dst.dl.ring_at[lattice_map[z]], pairs)
    return hom_build(src, dst, lattice_map, ring_maps)


def outcome(lift, src, dst, mapping):
    """The hom's lattice map items and ring-map graphs, or the exception's class and message."""
    try:
        f = lift(src, dst, mapping)
    except (MeadowError, KeyError) as exc:
        return type(exc), str(exc)
    return list(f.lattice_map.items()), {z: h.rule.graph for z, h in f.ring_maps.items()}


def fresh(m: Meadow) -> Meadow:
    return Meadow(m.dl, m.status)


MEADOWS = dict(corpus.finite_meadows())
SMALL_PAIRS = [
    (a, b)
    for a, b in itertools.product(MEADOWS, repeat=2)
    if MEADOWS[b].size() ** MEADOWS[a].size() <= MAX_MAPS
]


def all_maps(src, dst):
    """Every carrier map src -> dst, as index tuples in lexicographic order."""
    return itertools.product(range(dst.size()), repeat=src.size())


@pytest.mark.parametrize("src_name,dst_name", SMALL_PAIRS)
def test_lift_decides_every_carrier_map_as_the_structural_lift(src_name, dst_name):
    src, dst = fresh(MEADOWS[src_name]), fresh(MEADOWS[dst_name])
    xs, ys = src.elements(), dst.elements()
    accepted = 0
    for img in all_maps(src, dst):
        mapping = {x: ys[j] for x, j in zip(xs, img)}
        want = outcome(structural_lift, src, dst, mapping)
        assert outcome(hom_from_carrier_map, src, dst, mapping) == want, img
        accepted += not isinstance(want[0], type)
    assert accepted == len(enumerate_meadow_hom_maps(src, dst))


def test_the_pairs_reach_homs_and_each_refusal():
    # the brute force above meets accepted maps and the structural lift's refusals
    kinds = set()
    for src_name, dst_name in [("z2xz2", "z2"), ("chain_z4_z2", "z2"), ("glue_z2_z2", "z2")]:
        src, dst = MEADOWS[src_name], MEADOWS[dst_name]
        xs, ys = src.elements(), dst.elements()
        for img in all_maps(src, dst):
            got = outcome(hom_from_carrier_map, src, dst, {x: ys[j] for x, j in zip(xs, img)})
            kinds.add(got[0].__name__ if isinstance(got[0], type) else "hom")
    assert {"hom", "NotLatticeHom", "UnitNotPreserved", "NotAHomomorphism"} <= kinds


def test_an_additive_map_that_fixes_one_but_is_not_multiplicative_is_refused_as_before():
    # x -> x0 + x1 + x2 on Z2^3 (too large a carrier for the brute force)
    src, dst = MEADOWS["z2cube"], MEADOWS["z2"]
    mapping = {x: dst.a if x.node == "a" else dst.element("top", sum(x.value.payload)) for x in src.elements()}
    want = outcome(structural_lift, src, dst, mapping)
    assert want[0] is NotAHomomorphism and "multiplicative" in want[1]
    assert outcome(hom_from_carrier_map, src, dst, mapping) == want


def test_a_mapping_that_misses_an_element_or_names_a_foreign_one_fails_as_before():
    src, dst = MEADOWS["z6"], MEADOWS["z2"]
    (mapping,) = enumerate_meadow_hom_maps(src, dst)
    missing = dict(itertools.islice(mapping.items(), len(mapping) - 1))
    foreign = {**mapping, src.one: MEADOWS["z3"].one}
    odd = {**mapping, src.one: MeadowElement("top", rings.RingValue(rings.Mod(2), 3))}
    for bad in (missing, foreign, odd):
        want = outcome(structural_lift, src, dst, bad)
        assert isinstance(want[0], type)
        assert outcome(hom_from_carrier_map, src, dst, bad) == want


def test_a_zero_ring_above_the_bottom_is_left_to_the_structural_lift():
    # Z2 over a second zero ring, unvalidated: sending a there passes the
    # carrier equations, but the bottom must map to the bottom
    lat = Lattice(["t", "w", "a"], [("w", "t"), ("a", "w")])
    dst = PreMeadow(DirectedLattice(lat, {"t": rings.Mod(2), "w": rings.ZERO, "a": rings.ZERO}, {("t", "w"): rings.collapse_hom(rings.Mod(2))}))
    src = adjoin_error(rings.Mod(2))
    mapping = {x: dst.element("w", rings.TOK) if x.node == "a" else dst.element("t", x.value.payload) for x in src.elements()}
    ix_s, ix_d = src.freeze_tables(), dst.freeze_tables()
    img = [ix_d.key(mapping[x]) for x in ix_s.elements]
    for s_table, d_table in ((ix_s.add, ix_d.add), (ix_s.mul, ix_d.mul)):
        assert all(img[row[y]] == d_table[img[x]][img[y]] for x, row in enumerate(s_table) for y in range(len(row)))
    want = (NotLatticeHom, "bottom must map to bottom")
    assert outcome(structural_lift, src, dst, mapping) == want
    assert outcome(hom_from_carrier_map, src, dst, mapping) == want


def test_infinite_carriers_and_tables_past_the_cell_bound_take_the_structural_lift(monkeypatch):
    # Z3 into Z3 over Z3[x]: the target has no carrier index
    f3x = rings.Poly(rings.Mod(3))
    dst = build_meadow(corpus.chain(rings.Mod(3), rings.constant_embed(f3x), f3x))
    src = adjoin_error(rings.Mod(3))
    mapping = {x: dst.a if x.node == "a" else dst.element("n0", x.value.payload) for x in src.elements()}
    assert src.dl.validated() and dst.dl.validated()
    got = outcome(hom_from_carrier_map, src, dst, mapping)
    assert got == outcome(structural_lift, src, dst, mapping)
    assert got[0] == [("a", "a"), ("top", "n0")]
    # an infinite source: both raise InfiniteCarrier
    z = adjoin_error(rings.Z)
    assert outcome(hom_from_carrier_map, z, z, {}) == outcome(structural_lift, z, z, {})
    # carrier tables past the cell bound are not built; the lift is unchanged
    src, dst = MEADOWS["field_diamond"], MEADOWS["z3"]
    maps = enumerate_meadow_hom_maps(src, dst)
    monkeypatch.setattr(rings, "TABLE_CELL_LIMIT", 100)
    src, dst = fresh(src), fresh(dst)
    for mapping in maps:
        assert outcome(hom_from_carrier_map, src, dst, mapping) == outcome(structural_lift, src, dst, mapping)
    assert src._index is not None and "add" not in vars(src._index)


# -- the search --------------------------------------------------------------


def two_sided_search(n_src, n_dst, add_src, mul_src, add_dst, mul_dst, seeds):
    """The search with each popped element checked in both orders against every assigned one."""
    results = []

    def consistent(assign, newly):
        queue = list(newly)
        while queue:
            x = queue.pop()
            for y in list(assign):
                for src_op, dst_op in ((add_src, add_dst), (mul_src, mul_dst)):
                    for u, v in ((x, y), (y, x)):
                        s = src_op[u][v]
                        img = dst_op[assign[u]][assign[v]]
                        if s in assign:
                            if assign[s] != img:
                                return False
                        else:
                            assign[s] = img
                            queue.append(s)
        return True

    def extend(assign):
        missing = [e for e in range(n_src) if e not in assign]
        if not missing:
            results.append(dict(assign))
            return
        x = missing[0]
        for img in range(n_dst):
            trial = dict(assign)
            trial[x] = img
            if consistent(trial, [x]):
                extend(trial)

    start = dict(seeds)
    if consistent(start, list(start)):
        extend(start)
    return results


def search_args(src, dst):
    s, d = src.freeze_tables(), dst.freeze_tables()
    return len(s.elements), len(d.elements), s.add, s.mul, d.add, d.mul, {s.key(src.one): d.key(dst.one)}


@pytest.mark.parametrize("src_name,dst_name", SMALL_PAIRS)
def test_search_finds_the_brute_force_maps_in_order(src_name, dst_name):
    src, dst = MEADOWS[src_name], MEADOWS[dst_name]
    n_src, n_dst, add_s, mul_s, add_d, mul_d, seeds = search_args(src, dst)
    ((one, one_img),) = seeds.items()
    want = [
        img
        for img in all_maps(src, dst)
        if img[one] == one_img
        and all(
            img[row[y]] == table[img[x]][img[y]]
            for s_table, table in ((add_s, add_d), (mul_s, mul_d))
            for x, row in enumerate(s_table)
            for y in range(n_src)
        )
    ]
    got = _search_maps(n_src, n_dst, add_s, mul_s, add_d, mul_d, seeds)
    assert [tuple(m[i] for i in range(n_src)) for m in got] == want
    assert all(len(m) == n_src for m in got)


def test_search_keeps_the_two_sided_item_order():
    found = 0
    for a, b in itertools.product(MEADOWS, repeat=2):
        src, dst = MEADOWS[a], MEADOWS[b]
        if src.size() > 13 or dst.size() > 13:
            continue
        args = search_args(src, dst)
        got = _search_maps(*args)
        assert [list(m.items()) for m in got] == [list(m.items()) for m in two_sided_search(*args)], (a, b)
        found += len(got)
    assert found > 100
    for src, dst in ((rings.Mod(12), rings.Mod(6)), (rings.Product((rings.Mod(2), rings.Mod(3))), rings.Mod(6)), (rings.Mod(6), rings.Product((rings.Mod(2), rings.Mod(3))))):
        s, d = rings.FiniteTables(src), rings.FiniteTables(dst)
        args = len(s.payloads), len(d.payloads), s.add, s.mul, d.add, d.mul, {s.index[src.from_int(1)]: d.index[dst.from_int(1)]}
        got = _search_maps(*args)
        assert got and [list(m.items()) for m in got] == [list(m.items()) for m in two_sided_search(*args)]
        assert len(enumerate_ring_homs(src, dst)) == len(got)
