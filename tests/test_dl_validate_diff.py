"""dl_validate against the input-by-input algorithm it replaced.

``reference_dl_validate`` checks every edge hom with ``hom_validate`` and
every path i > j > k on the elements of a finite ring at i or on the
seeded sample of an infinite one; meets are the unique maximal element of
each down-set intersection.  On a finite lattice the two reports must be
equal check by check (name, passed, witness, checked, sampled, note).  On
an infinite one the edge checks a rule proves, and the path checks, are
decided exactly instead of on the sample, so the two must agree on each
check's name, verdict and witness, and a lattice whose edges are all
proved must report no sampled check.

The lattices: the corpus, the shipped files, the benchmark's seeded large
files, and hypothesis-built broken lattices that both must reject.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from meadows import cli, rings
from meadows.lattice import DirectedLattice, Lattice, dl_validate, node_key
from meadows.latfile import lattice_from_dict
from meadows.report import ValidationReport

import corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (the benchmark's seeded lattice files)


def reference_lattice_validate(L: Lattice) -> ValidationReport:
    report = ValidationReport(subject="lattice")
    nodes = L.nodes
    bad = next(
        ((a, b) for a, b in itertools.combinations(nodes, 2) if L.leq(a, b) and L.leq(b, a)),
        None,
    )
    report.add("antisymmetric", bad is None, bad, checked=len(nodes) ** 2)
    tops = L.maximal(nodes)
    report.add("unique_top", len(tops) == 1, tuple(sorted(tops, key=node_key)))
    bots = L.minimal(nodes)
    report.add("unique_bottom", len(bots) == 1, tuple(sorted(bots, key=node_key)))
    bad = None
    for i, j in itertools.combinations_with_replacement(nodes, 2):
        if len(L.maximal(L.down_set(i) & L.down_set(j))) != 1:
            bad = (i, j)
            break
    report.add("meets_exist", bad is None, bad, checked=len(nodes) ** 2)
    return report


def reference_dl_validate(dl: DirectedLattice) -> ValidationReport:
    report = ValidationReport(subject="directed lattice")
    report.absorb(reference_lattice_validate(dl.lattice))
    if not report.ok:
        return report

    L = dl.lattice
    bottom = L.bottom
    missing = [n for n in L.nodes if n not in dl.ring_at]
    report.add("ring_on_every_node", not missing, tuple(missing))
    if missing:
        return report

    ok = isinstance(dl.ring_at[bottom], rings.Zero)
    report.add("bottom_is_zero_ring", ok, None if ok else (bottom, dl.ring_at[bottom]))
    bad = next(
        (n for n in L.nodes if n != bottom and isinstance(dl.ring_at[n], rings.Zero)),
        None,
    )
    report.add("non_bottom_rings_unital", bad is None, None if bad is None else (bad,))

    for up, lo in L.covers():
        hom = dl.edge_homs.get((up, lo))
        if hom is None:
            report.add(f"edge_hom({up}->{lo})", False, None, note="missing")
            continue
        if hom.source != dl.ring_at[up] or hom.target != dl.ring_at[lo]:
            report.add(f"edge_hom({up}->{lo})", False, (hom.source, hom.target), note="endpoint mismatch")
            continue
        sub = rings.hom_validate(hom)
        report.absorb(sub, prefix=f"edge({up}->{lo}).")
    if not report.ok:
        return report

    lower_of = {j: [k for k in L.nodes if k != j and L.leq(k, j)] for j in L.nodes}
    for i in L.nodes:
        inputs = None
        direct: dict = {}
        for j in L.nodes:
            if j == i or not L.leq(j, i) or not lower_of[j]:
                continue
            if inputs is None:
                desc = dl.ring_at[i]
                finite = rings.is_finite(desc)
                if finite:
                    inputs = rings.enumerate_ring(desc)
                else:
                    inputs, _ = rings._validation_inputs(desc)
            to_j = dl.transition(i, j)
            at_j = [rings.hom_apply(to_j, x) for x in inputs]
            for k in lower_of[j]:
                if k not in direct:
                    to_k = dl.transition(i, k)
                    direct[k] = [rings.hom_apply(to_k, x) for x in inputs]
                step = dl.transition(j, k)
                bad = None
                for x, y, want in zip(inputs, at_j, direct[k]):
                    via = rings.hom_apply(step, y)
                    if via != want:
                        bad = (x, via, want)
                        break
                report.add(
                    f"path_independence({i}>{j}>{k})",
                    bad is None,
                    bad,
                    checked=len(inputs),
                    sampled=not finite,
                )
    return report


def all_proved(dl: DirectedLattice) -> bool:
    """True when every edge out of an infinite ring is proved by its rule."""
    return all(rings.is_finite(h.source) or h.rule.proves(h) for h in dl.edge_homs.values())


def assert_same_verdicts(dl: DirectedLattice) -> ValidationReport:
    # the report on a fresh lattice: dl_validate keeps a passing one
    got = dl_validate(DirectedLattice(dl.lattice, dl.ring_at, dl.edge_homs))
    want = reference_dl_validate(DirectedLattice(dl.lattice, dl.ring_at, dl.edge_homs))
    assert got.subject == want.subject
    if got.ok and all_proved(dl):
        # a passing report on exact data lists the cover triples only
        want = ValidationReport(want.subject, corpus.without_implied_path_checks(dl.lattice, want.checks))
    if dl.is_finite():
        assert got.checks == want.checks
    else:
        assert [(c.name, c.passed, c.witness) for c in got.checks] == [
            (c.name, c.passed, c.witness) for c in want.checks
        ]
        if all_proved(dl):
            assert got.mode == "exhaustive"
    return got


def _lattices():
    out = [(f"corpus:{name}", dl) for name, dl in corpus.valid_finite_lattices()]
    out += [(f"meadow:{name}", m.dl) for name, m in corpus.finite_meadows()]
    for extra in ("two_z3_ambiguous", "two_q_ambiguous", "chain_z_q", "broken_square_diamond", "bad_table_diamond"):
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
def test_reports_match_the_reference(name, dl):
    assert_same_verdicts(dl)


def test_the_corpus_holds_infinite_and_failing_lattices():
    kinds = {(dl.is_finite(), dl_validate(dl).ok) for _, dl in LATTICES}
    assert kinds == {(True, True), (False, True), (True, False)}


# -- hypothesis-built broken lattices that both must reject ---------------------


def diamond(top, left, right, meet, maps) -> DirectedLattice:
    """t over l and r over m over the bottom; maps are the t->l, t->r, l->m, r->m homs."""
    lat = Lattice(["t", "l", "r", "m", "a"], [("a", "m"), ("m", "l"), ("m", "r"), ("l", "t"), ("r", "t")])
    ring_at = {"t": top, "l": left, "r": right, "m": meet, "a": rings.ZERO}
    return DirectedLattice(lat, ring_at, dict(zip([("t", "l"), ("t", "r"), ("l", "m"), ("r", "m")], maps)))


def assert_both_reject(dl: DirectedLattice) -> None:
    report = assert_same_verdicts(dl)
    assert not report.ok


PRIMES = st.sampled_from((2, 3, 5))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluation_points_that_do_not_commute(data):
    p = data.draw(PRIMES)
    a, b = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    fp = rings.Mod(p)
    poly = rings.Poly(fp)
    ident = rings.identity_hom(fp)
    dl = diamond(poly, fp, fp, fp, [rings.poly_eval_at(poly, a), rings.poly_eval_at(poly, b), ident, ident])
    assert_both_reject(dl)
    bad = [c for c in dl_validate(dl).checks if not c.passed]
    assert [c.name for c in bad] == ["path_independence(t>r>m)"]
    assert bad[0].witness[0] == rings.RingValue(poly, poly.variables()[0])


def diamond_under_chain(extra: int, top, maps) -> DirectedLattice:
    """``diamond`` under ``extra`` chain nodes c0 > c1 > ... > t, each carrying t's ring by identities."""
    names = [f"c{k}" for k in range(extra)] + ["t"]
    order = [("a", "m"), ("m", "l"), ("m", "r"), ("l", "t"), ("r", "t")] + list(zip(names[1:], names))
    ring_at = {"l": top.base, "r": top.base, "m": top.base, "a": rings.ZERO, **{n: top for n in names}}
    edges = dict(zip([("t", "l"), ("t", "r"), ("l", "m"), ("r", "m")], maps))
    edges.update({(up, lo): rings.identity_hom(top) for up, lo in zip(names, names[1:])})
    return DirectedLattice(Lattice(list(ring_at), order), ring_at, edges)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_broken_diamond_under_a_chain_is_refused_with_every_triple(data):
    # exact data whose first failing triple, c0 > r > m, is not a cover triple:
    # the cover decision fails at t > r > m, and the rescan names them all
    p = data.draw(PRIMES)
    a, b = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
    fp = rings.Mod(p)
    poly = rings.Poly(fp)
    ident = rings.identity_hom(fp)
    dl = diamond_under_chain(
        data.draw(st.integers(1, 3)), poly, [rings.poly_eval_at(poly, a), rings.poly_eval_at(poly, b), ident, ident]
    )
    assert all_proved(dl)
    assert_both_reject(dl)
    got = dl_validate(dl)
    first = next(c for c in got.checks if not c.passed)
    assert first.name == "path_independence(c0>r>m)"
    assert first.witness[0] == rings.RingValue(poly, poly.variables()[0])
    assert "path_independence(t>r>m)" in [c.name for c in got.failures()]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), PRIMES, st.data())
def test_a_commuting_diamond_under_a_chain_reports_its_cover_triples(extra, p, data):
    fp = rings.Mod(p)
    poly = rings.Poly(fp)
    a = data.draw(st.integers(0, p - 1))
    ident = rings.identity_hom(fp)
    dl = diamond_under_chain(extra, poly, [rings.poly_eval_at(poly, a), rings.poly_eval_at(poly, a), ident, ident])
    got = assert_same_verdicts(dl)
    assert got.ok and got.mode == "exhaustive"
    L = dl.lattice
    covers = [
        f"path_independence({i}>{j}>{k})"
        for i in L.nodes
        for j in L.nodes
        if j in L.cover_lowers(i)
        for k in L.nodes
        if k != j and L.leq(k, j)
    ]
    assert [c.name for c in got.checks if c.name.startswith("path_")] == covers


def test_sampled_data_keep_every_triple():
    # a table of reduction mod 4 on every integer the sample can reach: a
    # passing edge no rule proves, so the covers decide nothing
    table = rings.table_hom(rings.Z, rings.Mod(4), [(v, v % 4) for v in range(-5000, 5001)])
    dl = corpus.chain(rings.Z, table, rings.Mod(4), rings.mod_to_mod(4, 2), rings.Mod(2))
    assert not all_proved(dl)
    got = assert_same_verdicts(dl)
    assert got.ok and got.mode.startswith("sampled:")
    assert "path_independence(n0>n2>a)" in [c.name for c in got.checks]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12))
def test_reduction_to_a_modulus_that_does_not_divide(n, m):
    if n % m == 0:
        m = n + 1
    wrong = rings.RingHom(rings.Mod(n), rings.Mod(m), rings.ReduceModDiv())
    assert not wrong.rule.proves(wrong)
    assert_both_reject(corpus.chain(rings.Mod(n), wrong, rings.Mod(m)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pairs_with_a_wrong_component(data):
    p = data.draw(PRIMES)
    fp = rings.Mod(p)
    poly, square = rings.Poly(fp), rings.Product((fp, fp))
    a, b, c = (data.draw(st.integers(0, p - 1)) for _ in range(3))
    if c == a:
        c = (a + 1) % p
    # Fp[x] -> Fp x Fp evaluates at a and b; the other branch at c, which the
    # first coordinate should also have used
    pair = rings.pair_hom([rings.poly_eval_at(poly, a), rings.poly_eval_at(poly, b)])
    maps = [pair, rings.poly_eval_at(poly, c), rings.project(square, 0), rings.identity_hom(fp)]
    assert_both_reject(diamond(poly, square, fp, fp, maps))
    # a component that is not a ring hom: Z_n -> Z_m with m not dividing n
    n = data.draw(st.sampled_from((4, 6, 9)))
    zn = rings.Mod(n)
    wrong = rings.RingHom(zn, fp if n % p else rings.Mod(5), rings.ReduceModDiv())
    pair = rings.pair_hom([rings.identity_hom(zn), wrong])
    assert not pair.rule.proves(pair)
    assert_both_reject(corpus.chain(zn, pair, pair.target))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.dictionaries(st.integers(-3, 3), st.integers(0, 5), max_size=7))
def test_tables_out_of_the_integers(n, entries):
    zn = rings.Mod(n)
    hom = rings.table_hom(rings.Z, zn, entries.items())
    assert not hom.rule.proves(hom)
    assert_both_reject(corpus.chain(rings.Z, hom, zn))


def test_a_load_builds_one_finite_tables_per_distinct_finite_ring(monkeypatch, tmp_path):
    # table edges between products, with the same rings on many nodes
    built = []
    real = rings.FiniteTables.__init__

    def counting(self, desc):
        built.append(desc)
        real(self, desc)

    monkeypatch.setattr(rings.FiniteTables, "__init__", counting)
    path = tmp_path / "product_diamond_chain.json"
    path.write_text(json.dumps(gen.product(gen.CORPUS["z6_split"], gen.CORPUS["chain_z4_z2"])))
    m = cli._load_meadow(path)
    m.freeze_tables().add  # the carrier index reads the lattice's tables too
    assert len(built) == len(set(built)) == len(set(m.dl.ring_at.values())) == 11
