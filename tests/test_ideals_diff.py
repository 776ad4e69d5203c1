"""Meadow ideal enumeration against the validated scan it replaced.

``reference_enumerate_meadow_ideals`` builds a ``MeadowIdeal`` for every
combination of the nodes' ring ideals and keeps those that pass
``ideal_validate``; ``reference_maximal_ideals`` keeps the proper ideals
that no other one strictly contains.  The library must give ideals with
the same members at every node, in the same order, and each of its ideals
must pass ``ideal_validate``.

The meadows: the corpus, the shipped finite lattice files, the benchmark's
finite set, products and glues of small corpus meadows with at most 2^12
candidates, and two unvalidated pre-meadows.  On the benchmark's set and
some products the (proper, maximal) counts are also checked against the
benchmark's closure-search oracle, which shares no code with the library.
"""

from __future__ import annotations

import itertools
import math
import pathlib
import random
import sys

import pytest

from meadows import rings
from meadows.enumeration import enumerate_meadow_ideals, maximal_ideals
from meadows.errors import InfiniteCarrier, NotComparable
from meadows.latfile import lattice_from_dict, load_lattice_file
from meadows.lattice import DirectedLattice, Lattice
from meadows.meadow import PreMeadow, build_meadow, build_premeadow
from meadows.morphisms import FiniteSubset, MeadowIdeal, WholeRing, glue, ideal_validate, meadow_product

import corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (the benchmark's lattice files)
import oracle  # noqa: E402  (a closure search that shares no code with the library)
import workloads  # noqa: E402  (the benchmark's finite set)

CANDIDATE_LIMIT = 2**12


def reference_finite_ring_ideals(desc: rings.RingDescriptor) -> list[frozenset]:
    if isinstance(desc, rings.Zero):
        return [frozenset(rings.enumerate_ring(desc))]
    if isinstance(desc, rings.Mod):
        out = []
        for d in range(1, desc.n + 1):
            if desc.n % d == 0:
                out.append(frozenset(rings.ring_value(desc, k) for k in range(0, desc.n, d)))
        return out
    if isinstance(desc, rings.Product):
        factor_ideals = [reference_finite_ring_ideals(f) for f in desc.factors]
        out = []
        for combo in itertools.product(*factor_ideals):
            out.append(frozenset(
                rings.RingValue(desc, tuple(v.payload for v in parts)) for parts in itertools.product(*combo)
            ))
        return out
    raise ValueError(f"no ideal enumeration for {desc}")


def reference_enumerate_meadow_ideals(m) -> list[MeadowIdeal]:
    L = m.lattice
    bottom = L.bottom
    per_node = {
        node: [None] if node == bottom else reference_finite_ring_ideals(m.dl.ring_at[node])
        for node in L.nodes
    }
    nodes = list(L.nodes)
    out = []
    for combo in itertools.product(*(per_node[n] for n in nodes)):
        ideal_at = {
            node: WholeRing() if node == bottom else FiniteSubset(members)
            for node, members in zip(nodes, combo)
        }
        ideal = MeadowIdeal(m, ideal_at)
        if isinstance(ideal.spec_at(L.top), WholeRing):
            continue
        if ideal_validate(ideal).ok:
            out.append(ideal)
    return out


def reference_maximal_ideals(proper: list[MeadowIdeal]) -> list[MeadowIdeal]:
    """The proper ideals no other one strictly contains."""
    return [i for i in proper if not any(j is not i and corpus.ideal_leq(i, j) and not corpus.ideal_leq(j, i) for j in proper)]


def members(ideals: list[MeadowIdeal]) -> list[dict]:
    """Each ideal as its member set at every node."""
    return [{n: i.members_by_node(n) for n in i.meadow.lattice.nodes} for i in ideals]


def candidates(m) -> int:
    """Combinations the reference scans."""
    return math.prod(
        len(reference_finite_ring_ideals(m.dl.ring_at[n])) for n in m.lattice.nodes if n != m.lattice.bottom
    )


def assert_same(m, name):
    got, proper = enumerate_meadow_ideals(m), reference_enumerate_meadow_ideals(m)
    assert members(got) == members(proper), name
    assert all(ideal_validate(i).ok for i in got), name
    got_max = maximal_ideals(m)
    assert members(got_max) == members(reference_maximal_ideals(proper)), name
    assert all(ideal_validate(i).ok for i in got_max), name
    return len(got), len(got_max)


def shipped_finite():
    for path in sorted((ROOT / "lattices").glob("*.json")):
        if "ideal" in path.stem:
            continue
        dl = load_lattice_file(path)
        if dl.is_finite():
            yield path.stem, build_premeadow(dl)


#: products and glues of corpus meadows, each with at most 2^12 candidates
PRODUCTS = (
    ("z2", "z3"), ("z2", "z4"), ("z2", "z2xz2"), ("z2", "chain_z4_z2"), ("z2", "glue_z2_z2"),
    ("z2", "z6_split_diamond"), ("z3", "z2xz2"), ("z4", "z4"), ("z4", "chain_z4_z2"), ("z2xz2", "z2xz2"),
)
GLUES = (
    (2, "z2", "z2xz2"), (2, "z2", "glue_z2_z2"), (2, "glue_z2_z2", "product_z2_z2"),
    (2, "product_z2_z2", "product_z2_z2"), (3, "z3", "z3"),
)


def compound(kind, a, b, p=None):
    meadows = dict(corpus.finite_meadows())
    if kind == "product":
        return meadow_product(meadows[a], meadows[b])
    return glue(meadows[a], meadows[b], p)


@pytest.mark.parametrize("name,m", corpus.finite_meadows(), ids=lambda v: v if isinstance(v, str) else "")
def test_corpus_matches_reference(name, m):
    assert_same(m, name)


@pytest.mark.parametrize("name,m", list(shipped_finite()), ids=lambda v: v if isinstance(v, str) else "")
def test_shipped_files_match_reference(name, m):
    assert_same(m, name)


@pytest.mark.parametrize("name", workloads.FINITE_SET)
def test_benchmark_set_matches_reference_and_oracle(name):
    data = gen.shuffled(workloads.finite_corpus(name), random.Random(11), "v")
    m = build_meadow(lattice_from_dict(data))
    assert assert_same(m, name) == oracle.Structure(data).ideal_counts(), name


@pytest.mark.parametrize(
    "kind,a,b,p",
    [("product", a, b, None) for a, b in PRODUCTS] + [("glue", a, b, p) for p, a, b in GLUES],
)
def test_products_and_glues_match_reference(kind, a, b, p):
    m = compound(kind, a, b, p)
    assert candidates(m) <= CANDIDATE_LIMIT
    assert_same(m, (kind, a, b))


@pytest.mark.parametrize(
    "data",
    [
        gen.product(gen.CORPUS["z2"], gen.CORPUS["chain_z4_z2"]),
        gen.product(gen.CORPUS["z2"], gen.CORPUS["z2xz3"]),
        gen.glue(gen.CORPUS["z2_diamond"], gen.CORPUS["z2_diamond"], 2),
    ],
    ids=["z2 x chain_z4_z2", "z2 x z2xz3", "glue_2(z2_diamond, z2_diamond)"],
)
def test_products_match_the_closure_oracle(data):
    m = build_meadow(lattice_from_dict(data))
    assert candidates(m) <= CANDIDATE_LIMIT
    assert assert_same(m, "product") == oracle.Structure(data).ideal_counts()


@pytest.mark.parametrize("path", ["z.json", "chain_z_q.json"])
def test_infinite_carriers_raise_before_any_work(path):
    m = build_premeadow(load_lattice_file(ROOT / "lattices" / path))
    with pytest.raises(InfiniteCarrier):
        enumerate_meadow_ideals(m)
    with pytest.raises(InfiniteCarrier):
        maximal_ideals(m)


def test_maximal_ideals_of_a_25_node_product():
    # 2^40 candidates: the reference scan cannot finish here
    m = meadow_product(build_meadow(corpus.z2_diamond_with_meet()), build_meadow(corpus.field_diamond(2)))
    assert len(m.lattice.nodes) == 25 and candidates(m) == 2**40
    got = maximal_ideals(m)
    top = m.lattice.top
    assert [len(i.members_by_node(top)) for i in got] == [2, 2]  # Z2 x 0 and 0 x Z2 in Z2 x Z2
    assert all(ideal_validate(i).ok for i in got)


def unvalidated_premeadows():
    z2, z4 = rings.Mod(2), rings.Mod(4)
    pair = rings.Product((z2, z2))
    # two paths from t to m that disagree: the search may not assume path independence
    diamond = Lattice(["t", "l", "r", "m", "a"], [("a", "m"), ("m", "l"), ("m", "r"), ("l", "t"), ("r", "t")])
    yield "path dependent", DirectedLattice(
        diamond,
        {"t": pair, "l": z2, "r": z2, "m": z2, "a": rings.ZERO},
        {
            ("t", "l"): rings.project(pair, 0), ("t", "r"): rings.project(pair, 1),
            ("l", "m"): rings.identity_hom(z2), ("r", "m"): rings.identity_hom(z2),
        },
    )
    # x and y below each other: no transition reaches them from the top
    cycle = Lattice(["t", "x", "y", "a"], [("a", "x"), ("x", "y"), ("y", "x"), ("x", "t"), ("y", "t")])
    yield "cycle", DirectedLattice(
        cycle,
        {"t": z4, "x": z2, "y": z2, "a": rings.ZERO},
        {
            ("t", "x"): rings.mod_to_mod(4, 2), ("t", "y"): rings.mod_to_mod(4, 2),
            ("x", "y"): rings.identity_hom(z2), ("y", "x"): rings.identity_hom(z2),
        },
    )


@pytest.mark.parametrize("name,dl", list(unvalidated_premeadows()), ids=lambda v: v if isinstance(v, str) else "")
def test_unvalidated_premeadows_match_reference(name, dl):
    def listed(enumerate_ideals):
        try:
            return members(enumerate_ideals(PreMeadow(dl)))
        except NotComparable as exc:
            return type(exc)

    assert listed(enumerate_meadow_ideals) == listed(reference_enumerate_meadow_ideals), name


def test_maximal_ideals_of_unvalidated_premeadows():
    dl = dict(unvalidated_premeadows())
    m = PreMeadow(dl["path dependent"])
    expected = reference_maximal_ideals(reference_enumerate_meadow_ideals(m))
    assert members(maximal_ideals(m)) == members(expected)
    # the reference lists the proper ideals first, which asks for a transition
    # into the cycle; the maximal ideals, (M, whole, ...) for M maximal at the
    # top, need none
    m = PreMeadow(dl["cycle"])
    with pytest.raises(NotComparable):
        reference_enumerate_meadow_ideals(m)
    z2, z4 = rings.Mod(2), rings.Mod(4)
    whole_z2 = frozenset(rings.enumerate_ring(z2))
    assert members(maximal_ideals(m)) == [
        {"t": frozenset(rings.RingValue(z4, k) for k in (0, 2)), "x": whole_z2, "y": whole_z2, "a": frozenset(rings.enumerate_ring(rings.ZERO))}
    ]
