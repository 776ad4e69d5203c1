"""Lattice order theory and directed-lattice coherence."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from meadows import rings
from meadows.errors import NotComparable, UnknownNode
from meadows.lattice import DirectedLattice, Lattice, dl_validate, lattice_validate

import corpus


def chain3():
    return Lattice(["bot", "q", "top"], [("bot", "q"), ("q", "top")])


def diamond():
    return Lattice(["bot", "l", "r", "top"], [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])


def test_chain_validates():
    assert lattice_validate(chain3()).ok


def test_diamond_validates_and_meets():
    L = diamond()
    assert lattice_validate(L).ok
    assert L.meet("l", "r") == "bot"


def test_two_maxima_fail_validation():
    L = Lattice(["bot", "x", "y"], [("bot", "x"), ("bot", "y")])
    report = lattice_validate(L)
    assert not report.ok
    assert any(c.name == "unique_top" for c in report.failures())


def test_meet_examples():
    L = chain3()
    assert L.meet("q", "top") == "q"
    F = corpus.field_diamond()
    assert F.lattice.meet("f1", "f2") == "f3"


def test_meet_identities_exhaustive():
    for L in (chain3(), diamond(), corpus.field_diamond().lattice):
        for i, j in itertools.product(L.nodes, repeat=2):
            assert L.meet(i, j) == L.meet(j, i)
            assert L.meet(i, i) == i
            assert L.meet(i, L.bottom) == L.bottom
        for i, j, k in itertools.product(L.nodes, repeat=3):
            assert L.meet(L.meet(i, j), k) == L.meet(i, L.meet(j, k))


def test_maximal_subset():
    L = chain3()
    assert L.maximal({"bot", "q"}) == {"q"}
    assert L.maximal(set()) == frozenset()
    T = corpus.two_q_ambiguous().lattice
    assert T.maximal({"q1", "q2", "a"}) == {"q1", "q2"}


def test_maximal_subset_is_an_antichain_over_all_subsets():
    for L in (diamond(), corpus.z2_diamond_with_meet().lattice):
        nodes = list(L.nodes)
        for r in range(len(nodes) + 1):
            for sub in itertools.combinations(nodes, r):
                got = L.maximal(sub)
                assert got <= set(sub)
                for s, t in itertools.combinations(got, 2):
                    assert not L.leq(s, t) and not L.leq(t, s)


def test_unknown_node_raises():
    with pytest.raises(UnknownNode):
        chain3().meet("q", "nope")


def test_chain_dl_validates():
    assert dl_validate(corpus.chain_z_q()).ok


def test_bottom_must_be_zero_ring():
    L = Lattice(["bot", "top"], [("bot", "top")])
    dl = DirectedLattice(
        L,
        {"bot": rings.Mod(2), "top": rings.Mod(2)},
        {("top", "bot"): rings.identity_hom(rings.Mod(2))},
    )
    report = dl_validate(dl)
    assert not report.ok
    assert any(c.name == "bottom_is_zero_ring" for c in report.failures())


def test_bad_table_edge_is_caught():
    report = dl_validate(corpus.bad_table_diamond())
    assert not report.ok
    # the broken table is exposed by the per-edge hom validation
    assert any("additive" in c.name or "multiplicative" in c.name for c in report.failures())


def test_incoherent_square_is_caught_with_witness():
    report = dl_validate(corpus.broken_square_diamond())
    assert not report.ok
    bad = [c for c in report.failures() if c.name.startswith("path_independence")]
    assert bad and bad[0].witness is not None
    witness_value = bad[0].witness[0]
    assert witness_value.payload[0] != witness_value.payload[1]  # coordinates disagree


def test_transition_chain_is_inclusion():
    dl = corpus.chain_z_q()
    t = dl.transition("n0", "n1")
    assert rings.hom_apply(t, rings.ring_value(rings.Z, 3)) == rings.ring_value(rings.Q, 3)


def test_transition_reflexive_is_identity():
    dl = corpus.chain_z_q()
    t = dl.transition("n0", "n0")
    assert isinstance(t.rule, rings.Identity)


def test_transition_to_bottom_collapses():
    dl = corpus.chain_z_q()
    t = dl.transition("n0", "a")
    assert t.target == rings.ZERO
    assert rings.hom_apply(t, rings.ring_value(rings.Z, 9)).payload is None


def test_transition_incomparable_raises():
    dl = corpus.two_q_ambiguous()
    with pytest.raises(NotComparable):
        dl.transition("q1", "q2")


def test_path_independence_against_manual_composition():
    dl = build = corpus.field_diamond()
    # manual walk along the other path for the pair (f0, f3)
    via_l = rings.compose_homs(dl.edge_homs[("f0", "f1")], dl.edge_homs[("f1", "f3")])
    via_r = rings.compose_homs(dl.edge_homs[("f0", "f2")], dl.edge_homs[("f2", "f3")])
    direct = dl.transition("f0", "f3")
    for x in rings.enumerate_ring(rings.Mod(3)):
        assert rings.hom_apply(via_l, x) == rings.hom_apply(via_r, x) == rings.hom_apply(direct, x)


def test_corpus_lattices_all_validate():
    for name, dl in corpus.valid_finite_lattices():
        report = dl_validate(dl)
        assert report.ok, f"{name}: {report.summary()}"


def test_validation_mode_names_every_sampled_check():
    assert dl_validate(corpus.field_diamond()).mode == "exhaustive"
    report = dl_validate(corpus.chain_z_q())
    sampled = [c for c in report.checks if c.sampled]
    assert {c.name for c in sampled} == {
        "edge(n0->n1).additive",
        "edge(n0->n1).multiplicative",
        "edge(n1->a).additive",
        "edge(n1->a).multiplicative",
        "path_independence(n0>n1>a)",
    }
    assert report.mode == "sampled:" + ", ".join(f"{c.name}={c.checked}" for c in sampled)


# -- oracle: random orders against networkx and brute force on the pair relation


@st.composite
def orders(draw, acyclic):
    """Node names and (lower, upper) pairs; acyclic orders only go up the list."""
    names = draw(st.permutations([f"n{i}" for i in range(draw(st.integers(1, 7)))]))
    pairs = [
        (a, b)
        for a, b in itertools.permutations(range(len(names)), 2)
        if a < b or not acyclic
    ]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return names, [(names[a], names[b]) for a, b in chosen]


def _brute_maximal(rel, subset):
    return frozenset(s for s in subset if not any(t != s and (s, t) in rel for t in subset))


def _brute_minimal(rel, subset):
    return frozenset(s for s in subset if not any(t != s and (t, s) in rel for t in subset))


def _unique(found):
    return next(iter(found)) if len(found) == 1 else None


def _check_against_oracle(names, order):
    L = Lattice(names, order)
    graph = nx.DiGraph()
    graph.add_nodes_from(names)
    graph.add_edges_from(order)
    rel = set(nx.transitive_closure(graph, reflexive=True).edges())
    nodes = L.nodes

    for a, b in itertools.product(nodes, repeat=2):
        assert L.leq(a, b) == ((a, b) in rel)
        want = _unique(_brute_maximal(rel, {m for m in nodes if (m, a) in rel and (m, b) in rel}))
        if want is None:
            with pytest.raises(ValueError):
                L.meet(a, b)
        else:
            assert L.meet(a, b) == want
    for n in nodes:
        assert L.down_set(n) == {m for m in nodes if (m, n) in rel}
    for subset in itertools.chain.from_iterable(
        itertools.combinations(nodes, r) for r in range(len(nodes) + 1)
    ):
        assert L.maximal(subset) == _brute_maximal(rel, subset)
        assert L.minimal(subset) == _brute_minimal(rel, subset)

    tops, bots = _brute_maximal(rel, nodes), _brute_minimal(rel, nodes)
    for attr, found in (("top", tops), ("bottom", bots)):
        if len(found) == 1:
            assert getattr(L, attr) == _unique(found)
        else:
            with pytest.raises(ValueError):
                getattr(L, attr)

    covers = [
        (up, lo)
        for lo, up in sorted(rel, key=lambda p: (p[1], p[0]))
        if lo != up and not any(m not in (lo, up) and (lo, m) in rel and (m, up) in rel for m in nodes)
    ]
    assert list(L.covers()) == covers
    for n in nodes:
        assert L.cover_lowers(n) == tuple(lo for up, lo in covers if up == n)
    assert L.is_chain() == all((a, b) in rel or (b, a) in rel for a in nodes for b in nodes)

    checks = {c.name: c.passed for c in lattice_validate(L).checks}
    assert checks["antisymmetric"] == all(
        a == b or not ((a, b) in rel and (b, a) in rel) for a in nodes for b in nodes
    )
    assert checks["unique_top"] == (len(tops) == 1)
    assert checks["unique_bottom"] == (len(bots) == 1)
    assert checks["meets_exist"] == all(
        len(_brute_maximal(rel, {m for m in nodes if (m, a) in rel and (m, b) in rel})) == 1
        for a in nodes
        for b in nodes
    )
    return L, graph


@settings(max_examples=150, deadline=None)
@given(orders(acyclic=True))
def test_acyclic_orders_match_networkx(case):
    L, graph = _check_against_oracle(*case)
    reduction = nx.transitive_reduction(graph)
    assert set(L.covers()) == {(up, lo) for lo, up in reduction.edges()}


@settings(max_examples=150, deadline=None)
@given(orders(acyclic=False))
def test_cyclic_orders_match_brute_force(case):
    _check_against_oracle(*case)
