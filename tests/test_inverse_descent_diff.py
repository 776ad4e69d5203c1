"""Inverse certification by cover descent against the down-set scan it replaced.

The reference images each probe into every node of its down-set
(``Meadow._units``) and takes the maximal unit nodes (``Lattice.maximal``),
as ``inverse_witness`` does; it certifies a meadow by running that over
``probe_pool()`` and raising ``AmbiguousInverse`` at the first probe with
more than one maximal node.  For every probe, the descent
(``Meadow._unit_stops``) must have the same maximal nodes, and
``build_meadow`` must succeed exactly when the reference does, or raise the
same ``AmbiguousInverse``: the same element, node set and message.

The lattices: the corpus meadows and its ambiguous lattices, the shipped
files, the benchmark's seeded large files, and hypothesis-built divisor
lattices of residue rings, some under the integers and many with
ambiguous units.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from meadows import rings
from meadows.errors import AmbiguousInverse
from meadows.latfile import lattice_from_dict
from meadows.lattice import DirectedLattice
from meadows.meadow import build_meadow

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


def outcome(build, dl):
    try:
        build(dl)
    except AmbiguousInverse as exc:
        return exc.element, exc.maximal, str(exc)
    return None


def assert_same_certification(dl: DirectedLattice):
    """Per-probe maximal nodes, then the build's outcome; returns the outcome."""
    m = build_meadow(fresh(dl), mode="lazy")
    for x in m.probe_pool():
        pair = m._pair(x)
        assert m.lattice.maximal(m._unit_stops(pair)) == m.lattice.maximal(m._units(pair)), x
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
