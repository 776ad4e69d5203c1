"""Inverse certification and inverses by cover descent against the down-set
scan they replaced.

The reference images each probe into every node of its down-set
(``Meadow._units``) and takes the maximal unit nodes (``Lattice.maximal``),
as ``inverse_witness`` does; it certifies a meadow by running that over
``probe_pool()`` and raising ``AmbiguousInverse`` at the first probe with
more than one maximal node, and inverts a probe at its one maximal node.
For every probe, the descent (``Meadow._unit_stops``) must have the same
maximal nodes, and ``Meadow.inverse`` on the validated lattice, which reads
the descent, must return the same element or raise the same
``AmbiguousInverse``: the same element, node set and message.
``build_meadow`` must succeed exactly when the reference does, or raise the
same ``AmbiguousInverse``.  An unvalidated lattice keeps the scan, so a
push the descent never makes still raises there.

The lattices: the corpus meadows and its ambiguous lattices, the shipped
files, the benchmark's seeded large files, and hypothesis-built divisor
lattices of residue rings, some under the integers and many with
ambiguous units.

Certification itself (``_verify_inverses``) is also held to its work
bound: no probe at a node whose down-set is a chain is walked, and on exact
data one build pushes each payload along each cover edge at most once.
"""

from __future__ import annotations

import copy
import inspect
import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from meadows import rings
from meadows.errors import AmbiguousInverse, TableIncomplete
from meadows.latfile import lattice_from_dict
from meadows.lattice import DirectedLattice, Lattice, dl_validate
from meadows.meadow import Meadow, _verify_inverses, build_meadow

import corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (the benchmark's seeded lattice files)


def fresh(dl: DirectedLattice) -> DirectedLattice:
    return DirectedLattice(dl.lattice, dl.ring_at, dl.edge_homs)


def reference_build(dl: DirectedLattice):
    """The meadow, certified by the down-set scan of every probe."""
    m = build_meadow(dl, mode="lazy")
    for x in m.probe_pool():
        maximal = m.lattice.maximal(m._units(m._pair(x)))
        if len(maximal) != 1:
            raise AmbiguousInverse(x, maximal)
    return m


def reference_inverse(m, x):
    """x's image at the one maximal node of its scanned unit nodes, inverted there."""
    units = m._units(m._pair(x))
    maximal = m.lattice.maximal(units)
    if len(maximal) != 1:
        raise AmbiguousInverse(x, maximal)
    (j,) = maximal
    return m._wrap((j, m.dl.ring_at[j].inverse(units[j])))


def outcome(build, dl):
    try:
        build(dl)
    except AmbiguousInverse as exc:
        return exc.element, exc.maximal, str(exc)
    return None


def inverted(inverse, x):
    """The inverse of x, or the ``AmbiguousInverse``'s element, node set and message."""
    try:
        return inverse(x)
    except AmbiguousInverse as exc:
        return exc.element, exc.maximal, str(exc)


def assert_same_certification(dl: DirectedLattice):
    """Per-probe maximal nodes and inverses, then the build's outcome; returns the outcome."""
    m = build_meadow(fresh(dl), mode="lazy")
    assert m.dl.validated()  # so Meadow.inverse reads the descent
    for x in m.probe_pool():
        pair = m._pair(x)
        assert m.lattice.maximal(m._unit_stops(pair)) == m.lattice.maximal(m._units(pair)), x
        assert inverted(m.inverse, x) == inverted(lambda x: reference_inverse(m, x), x), x
    want = outcome(reference_build, fresh(dl))
    assert outcome(build_meadow, fresh(dl)) == want
    return want


def _lattices():
    out = [(f"meadow:{name}", m.dl) for name, m in corpus.finite_meadows()]
    for extra in ("two_z3_ambiguous", "two_q_ambiguous", "chain_z_q"):
        out.append((f"corpus:{extra}", getattr(corpus, extra)()))
    for path in sorted((ROOT / "lattices").glob("*.json")):
        if "ideal" not in path.stem:
            out.append((f"file:{path.stem}", lattice_from_dict(json.loads(path.read_text()))))
    for seed in (1, 7):
        for name, data in gen.large_files(random.Random(seed)).items():
            out.append((f"seeded{seed}:{name}", lattice_from_dict(data)))
    return out


LATTICES = _lattices()


@pytest.mark.parametrize("name, dl", LATTICES, ids=[name for name, _ in LATTICES])
def test_certification_matches_the_down_set_scan(name, dl):
    assert_same_certification(dl)


def test_the_lattices_include_ambiguous_and_infinite_ones():
    kinds = {(dl.is_finite(), outcome(reference_build, fresh(dl)) is None) for _, dl in LATTICES}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


FINITE = [(name, dl) for name, dl in LATTICES if dl.is_finite()]


@pytest.mark.parametrize("name, dl", FINITE, ids=[name for name, _ in FINITE])
def test_certifying_a_finite_carrier_builds_no_elements(name, dl):
    try:
        m = build_meadow(fresh(dl))
    except AmbiguousInverse:
        return
    assert m.status == "verified"
    assert m._elements is None


# -- hypothesis-built divisor lattices ---------------------------------------


MODULI = st.sampled_from((12, 30, 36, 60, 105, 210))


@settings(max_examples=60, deadline=None)
@given(MODULI, st.booleans(), st.data())
def test_divisor_lattices_certify_like_the_scan(n, integers_on_top, data):
    divisors = [d for d in range(2, n) if n % d == 0]
    chosen = data.draw(st.lists(st.sampled_from(divisors), max_size=4))
    assert_same_certification(corpus.divisor_lattice(n, chosen, integers_on_top))


def test_divisor_lattices_can_be_ambiguous():
    # 5 is a non-unit of Z_30 that inverts in both Z_2 and Z_3
    got = assert_same_certification(corpus.divisor_lattice(30, [2, 3], False))
    assert got is not None and got[1] == {"d2", "d3"}
    # under Z no sampled integer is ambiguous, but 5 @ d30 still is
    got = assert_same_certification(corpus.divisor_lattice(30, [2, 3], True))
    assert got is not None and str(got[0]) == "5 @ d30" and got[1] == {"d2", "d3"}


def test_an_unvalidated_meadow_scans_and_raises_from_a_push_the_descent_skips():
    # 3 is a unit of Z4, so the descent stops at t; the scan also pushes it
    # down the edge t -> l, whose table misses 3
    m = Meadow(corpus.z4_diamond_missing_3(), "lazy")
    x = m.element("t", 3)
    assert m._unit_stops(m._pair(x)) == {"t": 3}
    with pytest.raises(TableIncomplete, match="no table entry for 3"):
        m.inverse(x)


# -- cover steps on exact data ------------------------------------------------


def reference_unit_stops(m, x):
    """The descent with each image read off x's own transition to the node."""
    node, p = x
    ring_at, transition, lowers = m.dl.ring_at, m.dl.transition, m.lattice.cover_lowers
    if ring_at[node].is_unit(p):
        return {node: p}
    stops, seen, todo = {}, {node}, list(lowers(node))
    while todo:
        j = todo.pop()
        if j in seen:
            continue
        seen.add(j)
        q = transition(node, j).fn(p)
        if ring_at[j].is_unit(q):
            stops[j] = q
        else:
            todo += lowers(j)
    return stops


def validated(dl: DirectedLattice) -> Meadow:
    m = build_meadow(fresh(dl), mode="lazy")
    assert m.dl.validated()
    return m


@pytest.mark.parametrize("name, dl", LATTICES, ids=[name for name, _ in LATTICES])
def test_cover_steps_stop_where_the_transitions_do(name, dl):
    m = validated(dl)
    assert m.dl._exact  # every lattice here, the ambiguous and infinite ones too
    for x in m.probe_pool():
        pair = m._pair(x)
        assert m._unit_stops(pair) == reference_unit_stops(m, pair), x


def test_sampled_data_descend_by_transitions():
    # no rule proves the unit map a hom out of Q, so its check is sampled
    lat = Lattice(["t", "m", "a"], [("a", "m"), ("m", "t")])
    unit_map = rings.RingHom(rings.Q, rings.Q, rings.UnitMap())
    dl = DirectedLattice(lat, {"t": rings.Q, "m": rings.Q, "a": rings.ZERO}, {("t", "m"): unit_map})
    m = validated(dl)
    assert not m.dl._exact
    asked = []
    transition = m.dl.transition
    m.dl.transition = lambda i, j: asked.append((i, j)) or transition(i, j)
    zero = m._pair(m.element("t", 0))
    stops = m._unit_stops(zero)
    assert asked == [("t", "m"), ("t", "a")]
    assert stops == reference_unit_stops(m, zero) == {"a": rings.TOK}


def test_certifying_a_chain_of_40_residue_rings_composes_no_transition():
    m = build_meadow(lattice_from_dict(gen.long_chain(40, 2)), mode="lazy")
    assert m.dl._exact
    before = len(m.dl._transitions)
    _verify_inverses(m)  # 0 at each node descends to the bottom
    assert len(m.dl._transitions) == before


# -- certification's work bound -----------------------------------------------


def record_pushes(dl: DirectedLattice) -> list:
    """Each cover edge's compiled map, wrapped to append (edge, payload) per push."""
    pushes = []
    for edge, hom in dl.edge_homs.items():
        wrapped = copy.copy(hom)
        object.__setattr__(wrapped, "fn", lambda p, fn=hom.fn, edge=edge: pushes.append((edge, p)) or fn(p))
        dl.edge_homs[edge] = wrapped
    return pushes


BOUNDED = [(name, dl) for name, dl in LATTICES if name in ("file:glue_zp_towers", "seeded1:product_diamond_chain")]


@pytest.mark.parametrize("name, dl", BOUNDED, ids=[name for name, _ in BOUNDED])
def test_certification_pushes_each_payload_once_and_walks_no_probe_under_a_chain(name, dl):
    dl = fresh(dl)
    assert dl_validate(dl).ok and dl._exact
    L = dl.lattice
    chain_nodes = {n for n in L.nodes if all(L.leq(i, j) or L.leq(j, i) for i in L.down_set(n) for j in L.down_set(n))}
    # what a descent from a walked probe may push out of a chain node: the
    # images there of the probes at the nodes above it that are no chain
    walked = [(m, dl.tables(dl.ring_at[m]).payloads) for m in L.nodes if m not in chain_nodes]
    images = {n: {dl.transition(m, n).fn(p) for m, pool in walked if L.leq(n, m) for p in pool} for n in chain_nodes}
    pushes = record_pushes(dl)
    build_meadow(dl)
    assert pushes and chain_nodes
    assert len(pushes) == len(set(pushes))
    for (n, _), p in pushes:
        assert n not in chain_nodes or p in images[n], (n, p)


def diamond_over_a_long_chain(length: int) -> dict:
    """``gen.long_chain`` of Z2s with a diamond of Z2s, t over l and r, on top."""
    data = gen.long_chain(length, 2)
    for node in ("t", "l", "r"):
        data["nodes"][node] = {"ring": gen.mod(2)}
    data["order"] += [["n0", "l"], ["n0", "r"], ["l", "t"], ["r", "t"]]
    data["homs"] += [{"from": up, "to": lo, "map": "identity"} for up, lo in (("t", "l"), ("t", "r"), ("l", "n0"), ("r", "n0"))]
    return data


def test_a_lattice_taller_than_the_recursion_headroom_certifies():
    m = validated(lattice_from_dict(diamond_over_a_long_chain(300)))  # 0 @ t descends the whole chain
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        _verify_inverses(m)
    finally:
        sys.setrecursionlimit(limit)
    assert m.inverse(m.element("t", 0)) == m.a


def test_sampled_data_off_a_chain_certify_like_the_scan_by_transitions():
    # no rule proves the unit map a hom out of Q, so the diamond's checks are sampled
    lat = Lattice(["t", "l", "r", "a"], [("a", "l"), ("a", "r"), ("l", "t"), ("r", "t")])
    unit_map = rings.RingHom(rings.Q, rings.Q, rings.UnitMap())
    ring_at = {"t": rings.Q, "l": rings.Q, "r": rings.Q, "a": rings.ZERO}
    dl = DirectedLattice(lat, ring_at, {("t", "l"): unit_map, ("t", "r"): unit_map})
    assert assert_same_certification(dl) is None
    m = validated(dl)
    assert not m.dl._exact
    asked = []
    transition = m.dl.transition
    m.dl.transition = lambda i, j: asked.append((i, j)) or transition(i, j)
    _verify_inverses(m)  # 0 @ t is a unit only at the bottom
    assert set(asked) == {("t", "l"), ("t", "r"), ("t", "a")}
