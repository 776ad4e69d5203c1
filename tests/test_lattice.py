"""Lattice order theory and directed-lattice coherence."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from meadows import rings
from meadows.errors import MeadowError, MissingEdgeHom, NotComparable, UnknownNode
from meadows.lattice import DirectedLattice, Lattice, dl_validate, lattice_validate
from meadows.meadow import Meadow, PreMeadow

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


def test_meet_of_an_unknown_node_raises_before_and_after_caching():
    L = diamond()
    for _ in range(2):
        assert L.meet("l", "r") == "bot"
        for pair in (("l", "nowhere"), ("nowhere", "l"), ("nowhere", "nowhere")):
            with pytest.raises(UnknownNode):
                L.meet(*pair)


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
    # Z -> Q and the collapse are proved by their rules, and Z has no
    # generators, so nothing on chain_z_q is sampled
    report = dl_validate(corpus.chain_z_q())
    assert report.ok
    assert not [c for c in report.checks if c.sampled]
    assert report.mode == "exhaustive"
    # Q -> Q by the unit map is a ring hom, but the rule cannot show it from
    # its endpoints, so its edge check is a sample and so is the path check
    report = dl_validate(corpus.chain(rings.Q, rings.RingHom(rings.Q, rings.Q, rings.UnitMap()), rings.Q))
    assert report.ok
    sampled = [c for c in report.checks if c.sampled]
    assert {c.name for c in sampled} == {
        "edge(n0->n1).additive",
        "edge(n0->n1).multiplicative",
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


# -- cached transitions and path independence against the per-triple reference --


def test_transition_answers_repeat_calls_from_the_cache():
    dl = corpus.chain_z_q()
    assert dl.transition("n0", "n1") is dl.transition("n0", "n1")
    assert dl.transition("n0", "n0") is dl.transition("n0", "n0")
    assert dl.transition("n0", "n0") == rings.identity_hom(rings.Z)


def test_transition_still_rejects_unknown_and_incomparable_nodes():
    dl = corpus.two_q_ambiguous()
    dl.transition("z", "q1"), dl.transition("q1", "q1")
    for _ in range(2):
        with pytest.raises(UnknownNode):
            dl.transition("z", "nowhere")
        with pytest.raises(UnknownNode):
            dl.transition("nowhere", "nowhere")
        with pytest.raises(NotComparable):
            dl.transition("q1", "q2")
        with pytest.raises(NotComparable):
            dl.transition("q1", "z")


def test_transition_into_a_cycle_raises_not_comparable_naming_the_stall():
    # x and y lie below each other, so neither is a cover lower of t
    cycle = Lattice(["t", "x", "y", "a"], [("a", "x"), ("x", "y"), ("y", "x"), ("x", "t"), ("y", "t")])
    z2, z4 = rings.Mod(2), rings.Mod(4)
    dl = DirectedLattice(
        cycle,
        {"t": z4, "x": z2, "y": z2, "a": rings.ZERO},
        {("t", "x"): rings.mod_to_mod(4, 2), ("t", "y"): rings.mod_to_mod(4, 2)},
    )
    with pytest.raises(NotComparable, match=r"from 't' down to 'x': it stops at 't'"):
        dl.transition("t", "x")


def reference_path_checks(dl):
    """Path independence triple by triple: inputs, composite and images redone each time."""
    from meadows.report import ValidationReport

    report = ValidationReport(subject="directed lattice")
    L = dl.lattice
    for i in L.nodes:
        for j in L.nodes:
            if j == i or not L.leq(j, i):
                continue
            for k in L.nodes:
                if k == j or not L.leq(k, j):
                    continue
                direct = dl.transition(i, k)
                via = rings.compose_homs(dl.transition(i, j), dl.transition(j, k))
                desc = dl.ring_at[i]
                if rings.is_finite(desc):
                    inputs, exhaustive = rings.enumerate_ring(desc), True
                else:
                    (inputs, _), exhaustive = rings._validation_inputs(desc), False
                bad = next(
                    (x for x in inputs if rings.hom_apply(direct, x) != rings.hom_apply(via, x)),
                    None,
                )
                report.add(
                    f"path_independence({i}>{j}>{k})",
                    bad is None,
                    None if bad is None else (bad, rings.hom_apply(via, bad), rings.hom_apply(direct, bad)),
                    checked=len(inputs),
                    sampled=not exhaustive,
                )
    return report


def _path_lattices():
    from meadows.latfile import load_lattice_file

    out = list(corpus.valid_finite_lattices())
    out += [
        ("broken_square_diamond", corpus.broken_square_diamond()),
        ("chain_z_q", corpus.chain_z_q()),
        ("two_q_ambiguous", corpus.two_q_ambiguous()),
        ("two_z3_ambiguous", corpus.two_z3_ambiguous()),
        ("chain_z2_x12", corpus.chain(*([rings.Mod(2), rings.identity_hom(rings.Mod(2))] * 11 + [rings.Mod(2)]))),
    ]
    for path in ("lattices/chain_z_q.json", "lattices/example_4_14.json", "lattices/glue_zp_towers.json"):
        out.append((path, load_lattice_file(path)))
    return out


@pytest.mark.parametrize("name,dl", _path_lattices(), ids=lambda x: x if isinstance(x, str) else "")
def test_path_independence_checks_match_the_reference(name, dl):
    report = dl_validate(dl)
    got = [c for c in report.checks if c.name.startswith("path_")]
    want = reference_path_checks(dl).checks
    exact = not any(c.sampled for c in report.checks if c.name.startswith("edge("))
    if report.ok and exact:
        # a passing report on exact data lists the cover triples only
        want = corpus.without_implied_path_checks(dl.lattice, want)
    if dl.is_finite():
        assert got == want
        return
    # on infinite rings the verdict comes from generators, not from the sample
    assert [(c.name, c.passed, c.witness) for c in got] == [(c.name, c.passed, c.witness) for c in want]
    if exact:
        assert not any(c.sampled for c in got)


# -- transitions built from cached suffixes against the whole-path walk ---------


def reference_transition(dl, i, j):
    """The composite along the path of first cover lowers, composed in one call."""
    L = dl.lattice
    if i == j:
        return rings.identity_hom(dl.ring_at[i])
    steps, current = [], i
    while current != j:
        nxt = min((lo for lo in L.cover_lowers(current) if L.leq(j, lo)), key=str)
        steps.append(dl.edge_homs[(current, nxt)])
        current = nxt
    return rings.compose_homs(*steps)


def _transition_lattices():
    two, four, eight = rings.Mod(2), rings.Mod(4), rings.Mod(8)
    z2z2 = rings.Product((two, two))
    swap = rings.table_hom(z2z2, z2z2, [((x, y), (y, x)) for x in (0, 1) for y in (0, 1)])
    out = _path_lattices()
    out += [
        # identities around non-identity steps, and a composite edge
        ("mixed_chain", corpus.chain(
            eight, rings.identity_hom(eight), eight,
            rings.compose_homs(rings.mod_to_mod(8, 4), rings.identity_hom(four)), four,
            rings.identity_hom(four), four, rings.mod_to_mod(4, 2), two, rings.identity_hom(two), two,
        )),
        ("swaps_and_identities", corpus.chain(
            z2z2, swap, z2z2, rings.identity_hom(z2z2), z2z2, swap, z2z2, rings.identity_hom(z2z2), z2z2,
            rings.project(z2z2, 1), two,
        )),
        ("eight_step_reduction", corpus.chain(
            eight, rings.compose_homs(rings.mod_to_mod(8, 4), rings.mod_to_mod(4, 2)), two,
        )),
    ]
    return out


@pytest.mark.parametrize("name,dl", _transition_lattices(), ids=lambda x: x if isinstance(x, str) else "")
def test_transitions_equal_the_whole_path_walk_in_any_query_order(name, dl):
    L = dl.lattice
    pairs = [(i, j) for i in L.nodes for j in L.nodes if L.leq(j, i)]
    for seed in range(3):
        fresh = DirectedLattice(L, dl.ring_at, dl.edge_homs)
        random.Random(seed).shuffle(pairs)
        for i, j in pairs:
            assert fresh.transition(i, j) == reference_transition(dl, i, j)


class ChainOrder:
    """The order 0 < 1 < ... < n with what DirectedLattice.transition reads of a Lattice."""

    def __init__(self, n):
        self.nodes = tuple(range(n + 1))
        self.bottom = 0

    def covers(self):
        return tuple((k + 1, k) for k in range(len(self.nodes) - 1))

    def _check(self, *given):
        for n in given:
            if n not in self.nodes:
                raise UnknownNode(n)

    def leq(self, a, b):
        return a <= b

    def cover_lowers(self, n):
        return (n - 1,) if n else ()


def test_transition_down_a_chain_of_thousands_of_nodes():
    n = 3000
    two = rings.Mod(2)
    z2z2 = rings.Product((two, two))
    swap = rings.table_hom(z2z2, z2z2, [((x, y), (y, x)) for x in (0, 1) for y in (0, 1)])
    ring_at = {k: z2z2 for k in range(1, n + 1)}
    ring_at[0] = rings.ZERO
    edges = {(k + 1, k): swap if k % 700 == 0 else rings.identity_hom(z2z2) for k in range(1, n)}
    dl = DirectedLattice(ChainOrder(n), ring_at, edges)
    hom = dl.transition(n, 1)
    assert hom == reference_transition(dl, n, 1)
    assert len(hom.rule.stages) == 4  # the swaps below 2800, 2100, 1400 and 700
    assert dl.transition(n, 0).rule.stages[-1] == rings.collapse_hom(z2z2)


def test_a_missing_meet_or_top_on_an_unvalidated_pre_meadow_is_a_meadow_error():
    z2 = rings.Mod(2)
    cycle = Lattice(["t", "u", "a"], [("a", "t"), ("a", "u"), ("t", "u"), ("u", "t")])
    edges = {("t", "u"): rings.identity_hom(z2), ("u", "t"): rings.identity_hom(z2)}
    m = PreMeadow(DirectedLattice(cycle, {"t": z2, "u": z2, "a": rings.ZERO}, edges))
    with pytest.raises(MeadowError, match="nodes 't' and 'u' have no meet"):
        m.add(m.element("t", 1), m.element("u", 1))
    two_tops = Lattice(["t", "u", "a"], [("a", "t"), ("a", "u")])
    m = PreMeadow(DirectedLattice(two_tops, {"t": z2, "u": z2, "a": rings.ZERO}))
    with pytest.raises(MeadowError, match="lattice has no unique top"):
        m.numeral(1)
    with pytest.raises(ValueError):  # still a ValueError, as callers catching that expect
        m.numeral(1)


def test_a_transition_round_a_cycle_is_refused(monkeypatch):
    # unvalidated: t and u lie below each other, so the cover walk from t
    # towards a goes t, u, t, ...; it must stop at the repeat
    z2 = rings.Mod(2)
    cycle = Lattice(["t", "u", "a"], [("a", "t"), ("a", "u"), ("t", "u"), ("u", "t")])
    dl = DirectedLattice(cycle, {"t": z2, "u": z2, "a": rings.ZERO}, {("t", "u"): rings.identity_hom(z2), ("u", "t"): rings.identity_hom(z2)})
    steps = itertools.count()
    cover_lowers = Lattice.cover_lowers

    def bounded(self, n):  # a walk that never stops fails here instead of exhausting memory
        assert next(steps) < 100, "the cover walk does not stop"
        return cover_lowers(self, n)

    monkeypatch.setattr(Lattice, "cover_lowers", bounded)
    with pytest.raises(NotComparable, match="no path of covers runs from 't' down to 'a': it cycles at 't'"):
        dl.transition("t", "a")


def test_a_cover_edge_without_a_hom_is_a_meadow_error_and_caches_no_plan():
    # unvalidated: the diamond is given only its edge t -> r, and the walk
    # from t to l, or from t to the bottom, takes the edge t -> l
    z4 = rings.Mod(4)
    lat = Lattice(["t", "l", "r", "a"], [("a", "l"), ("a", "r"), ("l", "t"), ("r", "t")])
    dl = DirectedLattice(lat, {"t": z4, "l": z4, "r": rings.Mod(2), "a": rings.ZERO}, {("t", "r"): rings.mod_to_mod(4, 2)})
    m = Meadow(dl, "lazy")
    x, y = m.element("t", 1), m.element("l", 1)
    message = r"the cover edge \('t', 'l'\) has no hom Z4 -> Z4"
    for call in (lambda: m.add(x, y), lambda: m.inverse(x), lambda: m.add(x, y)):
        with pytest.raises(MeadowError, match=message) as caught:
            call()
        assert isinstance(caught.value, MissingEdgeHom) and isinstance(caught.value, KeyError)
    assert ("t", "l") not in dl._plans  # so the second add raised again
    assert m.add(x, m.element("r", 1)) == m.element("r", 0)
