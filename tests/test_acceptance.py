"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on a passing run.
"""

import random
import time

import pytest

from meadows import axioms, rings
from meadows.cli import main as cli_main
from meadows.enumeration import (
    enumerate_meadow_hom_maps,
    enumerate_meadow_ideals,
    enumerate_ring_homs,
)
from meadows.errors import AmbiguousInverse
from meadows.latfile import load_ideal_file, load_lattice_file
from meadows.meadow import build_meadow
from meadows.morphisms import (
    FiniteSubset,
    MeadowIdeal,
    adjoin_error,
    base_ring,
    congruence_quotient,
    hom_build,
    hom_is_injective,
    induced_hom,
    ideal_validate,
    kernel,
    quotient,
    radical,
)
from meadows.terms import ErrorConst, Numeral, Var, eval_term, parse
import meadows.terms as terms_mod

import corpus


def report(n, label, started):
    print(f"ACCEPTANCE {n} [{label}]: PASS ({time.monotonic() - started:.2f}s)")


# -- 1: worked examples from the shipped lattice files --------------------------


def test_acceptance_1_paper_examples():
    t0 = time.monotonic()

    N = build_meadow(load_lattice_file("lattices/chain_z_q.json"), mode="verify")
    assert N.inverse(N.element("z", 2)) == N.element("q", "1/2")
    assert N.inverse(N.element("z", 0)) == N.a

    M = build_meadow(load_lattice_file("lattices/z.json"), mode="verify")
    assert M.inverse(M.element("z", 5)) == M.a

    P = build_meadow(load_lattice_file("lattices/z2z2.json"), mode="verify")
    one_one = P.element("p", [1, 1])
    for x in P.elements():
        if x == one_one:
            assert P.inverse(x) == one_one
        else:
            assert P.inverse(x) == P.a

    E = build_meadow(load_lattice_file("lattices/example_4_14.json"), mode="verify")
    ideal = load_ideal_file("lattices/example_4_14_ideal.json", E)
    q = quotient(E, ideal)
    assert set(q.quotient.lattice.nodes) == {"M0", "M1", "M5", "a"}
    assert q.is_meadow

    M2 = adjoin_error(rings.Mod(2))
    prod = rings.Product((rings.Mod(2), rings.Mod(2)))
    pi1 = hom_build(
        P,
        M2,
        {"p": "top", "a": "a"},
        {"p": rings.project(prod, 0), "a": rings.identity_hom(rings.ZERO)},
    )
    classes = {frozenset(c) for c in congruence_quotient(pi1).classes}
    assert classes == {
        frozenset({P.element("p", [0, 0]), P.element("p", [0, 1])}),
        frozenset({P.element("p", [1, 1]), P.element("p", [1, 0])}),
        frozenset({P.a}),
    }

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, "paper examples", t0)


# -- 2: every valid corpus lattice builds and satisfies all 14 equations ---------


def test_acceptance_2_build_and_cm_suite():
    t0 = time.monotonic()
    lattices = corpus.valid_finite_lattices()
    assert len(lattices) >= 20
    for name, dl in lattices:
        m = build_meadow(dl, mode="verify")
        assert m.status == "verified", name
        rep = axioms.check_axioms(m, "CM", exhaustive=True)
        assert rep.ok, f"{name}: {rep.to_text()}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s"
    report(2, f"CM suite on {len(lattices)} lattices", t0)


# -- 3: unique-maximal support, both directions ----------------------------------


def _push_along_some_path(dl, i, j, value):
    """Follow cover edges from i down to j, choosing the largest key first.

    Deliberately a different traversal than the library's transition maps.
    """
    if i == j:
        return value
    choices = [
        lo
        for up, lo in dl.lattice.covers()
        if up == i and dl.lattice.leq(j, lo)
    ]
    lo = max(choices, key=str)
    moved = rings.hom_apply(dl.edge_homs[(i, lo)], value)
    return _push_along_some_path(dl, lo, j, moved)


def _brute_force_support(m, x):
    """Unit test by exhaustive product search, no library unit predicate."""
    out = set()
    for j in m.lattice.nodes:
        if not m.lattice.leq(j, x.node):
            continue
        img = _push_along_some_path(m.dl, x.node, j, x.value)
        ring = m.dl.ring_at[j]
        one = rings.one_value(ring)
        if any(rings.mul(img, w) == one for w in rings.enumerate_ring(ring)):
            out.add(j)
    return out


def test_acceptance_3_unique_maximal_support():
    t0 = time.monotonic()
    # (a) every verified structure agrees with an independent brute force
    for name, m in corpus.finite_meadows():
        for x in m.elements():
            support = _brute_force_support(m, x)
            maximal = {
                j
                for j in support
                if not any(k != j and m.lattice.leq(j, k) for k in support)
            }
            assert len(maximal) == 1, (name, x)
            w = m.inverse_witness(x)
            assert w.support == support and w.maximal == maximal, (name, x)

    # (b) the ambiguous stand-ins fail naming exactly two maximal nodes
    with pytest.raises(AmbiguousInverse) as exc:
        build_meadow(load_lattice_file("lattices/two_q_ambiguous.json"), mode="verify")
    assert exc.value.maximal == {"q1", "q2"}

    lazy = build_meadow(load_lattice_file("lattices/two_q_ambiguous.json"), mode="lazy")
    with pytest.raises(AmbiguousInverse) as exc2:
        lazy.inverse(lazy.element("z", 2))
    assert exc2.value.maximal == {"q1", "q2"}

    with pytest.raises(AmbiguousInverse) as exc3:
        build_meadow(load_lattice_file("lattices/two_z3_ambiguous.json"), mode="verify")
    assert len(exc3.value.maximal) == 2
    report(3, "unique-maximal support", t0)


# -- 4: decompose then rebuild reproduces the operation tables --------------------


def test_acceptance_4_decompose_round_trip():
    t0 = time.monotonic()
    for name, m in corpus.finite_meadows():
        rebuilt = build_meadow(m.decompose().to_directed_lattice(), mode="verify")
        assert m.operation_table("add") == rebuilt.operation_table("add"), name
        assert m.operation_table("mul") == rebuilt.operation_table("mul"), name
    report(4, "decompose round trip", t0)


# -- 5: lattice-shape characterizations of the optional laws ----------------------


def _is_maximal(i, proper):
    return not any(j is not i and corpus.ideal_leq(i, j) and not corpus.ideal_leq(j, i) for j in proper)


def test_acceptance_5_characterizations_and_ideals():
    t0 = time.monotonic()
    for name, m in corpus.finite_meadows():
        nvl = axioms.check_axioms(m, "NVL", exhaustive=True).ok
        avl = axioms.check_axioms(m, "AVL", exhaustive=True).ok
        cil = axioms.check_axioms(m, "CIL", exhaustive=True).ok
        assert nvl == (len(m.lattice.nodes) == 2), name
        assert cil == (
            len(m.lattice.nodes) == 2 and rings.is_field(base_ring(m))
        ), name
        assert (nvl and avl) == cil, name

        q = quotient(m, radical(m))
        assert q.is_meadow and axioms.check_axioms(q.quotient, "NVL", exhaustive=True).ok, name

        if m.size() <= 64:
            proper = enumerate_meadow_ideals(m)
            for ideal in proper:
                res = quotient(m, ideal)
                quotient_cil = res.is_meadow and axioms.check_axioms(
                    res.quotient, "CIL", exhaustive=True
                ).ok
                assert quotient_cil == _is_maximal(ideal, proper), name
    report(5, "NVL/AVL/CIL characterizations", t0)


# -- 6: hom facts, kernels, injectivity, first isomorphism -------------------------


def _kernel_as_ideal(f):
    by_node = {}
    for x in kernel(f, "R"):
        by_node.setdefault(x.node, set()).add(x.value)
    return MeadowIdeal(
        f.source, {node: FiniteSubset(frozenset(vals)) for node, vals in by_node.items()}
    )


def test_acceptance_6_homomorphism_theory():
    t0 = time.monotonic()
    homs = corpus.hom_corpus()
    assert len(homs) >= 50
    for name, f in homs:
        src, dst = f.source, f.target
        assert f.apply(src.zero) == dst.zero, name
        assert f.apply(src.a) == dst.a, name
        assert f.apply(src.neg(src.one)) == dst.neg(f.apply(src.one)), name
        for x in src.elements():
            if f.apply(x) != dst.a:
                continue
            for y in src.elements():
                assert f.apply(src.add(x, y)) == dst.a, name
                assert f.apply(src.mul(x, y)) == dst.a, name

        ker_ideal = _kernel_as_ideal(f)
        assert ideal_validate(ker_ideal).ok, name

        injective, _ = hom_is_injective(f)
        small_fibres = all(
            len(kernel(f, ("at", dst.component_zero(z)))) <= 1
            for z in dst.lattice.nodes
        )
        assert injective == small_fibres, name

        surjective = {f.apply(x) for x in src.elements()} == set(dst.elements())
        lattice_bijective = len(set(f.lattice_map.values())) == len(
            f.lattice_map
        ) and set(f.lattice_map.values()) == set(dst.lattice.nodes)
        if surjective and lattice_bijective:
            tilde = induced_hom(f, ker_ideal)
            images = [tilde.apply(x) for x in tilde.source.elements()]
            assert len(set(images)) == len(images), name
            assert set(images) == set(dst.elements()), name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.2f}s"
    report(6, f"{len(homs)} homs verified", t0)


# -- 7: hom-set cardinalities agree across the adjunction --------------------------


def test_acceptance_7_adjunction_counts():
    t0 = time.monotonic()
    test_rings = (
        rings.Mod(2),
        rings.Mod(3),
        rings.Mod(4),
        rings.Product((rings.Mod(2), rings.Mod(2))),
    )
    checked = 0
    for name, m in corpus.finite_meadows():
        if m.size() > 20:
            continue
        for r in test_rings:
            n_ring = len(enumerate_ring_homs(r, base_ring(m)))
            n_meadow = len(enumerate_meadow_hom_maps(adjoin_error(r), m))
            assert n_ring == n_meadow, (name, str(r), n_ring, n_meadow)
            checked += 1
    assert checked >= 40
    report(7, f"{checked} hom-set counts", t0)


# -- 8: total evaluation under fuzzing, plus the CLI golden paths -------------------


def _random_term(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(
            (Numeral(rng.randrange(10)), ErrorConst(), Var("x"), Var("y"))
        )
    k = rng.randrange(7)
    if k == 0:
        return terms_mod.Add(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if k == 1:
        return terms_mod.Sub(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if k == 2:
        return terms_mod.Mul(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if k == 3:
        return terms_mod.Div(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if k == 4:
        return terms_mod.Neg(_random_term(rng, depth - 1))
    if k == 5:
        return terms_mod.Inv(_random_term(rng, depth - 1))
    return terms_mod.Pow(_random_term(rng, depth - 1), rng.randrange(-3, 4))


def test_acceptance_8_parser_evaluator_totality(capsys):
    t0 = time.monotonic()
    m = adjoin_error(rings.Mod(6))
    assert m.status == "verified"
    m.freeze_tables()
    env = {"x": m.element("top", 2), "y": m.element("top", 5)}
    rng = random.Random(20240817)
    for _ in range(100_000):
        t = _random_term(rng, 3)
        result = eval_term(t, m, env)
        assert m.contains(result)

    assert eval_term(parse("1/0"), m) == m.a
    assert eval_term(parse("x + a"), m, env) == m.a

    assert cli_main(["eval", "lattices/chain_z_q.json", "1/0"]) == 0
    assert cli_main(["check", "lattices/z6.json", "--suite", "CM", "--exhaustive"]) == 0
    assert cli_main(["check", "lattices/two_q_ambiguous.json", "--suite", "CM"]) == 1
    assert cli_main(["check", "lattices/z6.json", "--suite", "CIL", "--exhaustive"]) == 1
    assert cli_main(["eval", "lattices/chain_z_q.json", "nope + 1"]) == 1
    capsys.readouterr()
    report(8, "evaluator totality and CLI", t0)
