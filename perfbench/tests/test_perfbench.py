"""Tests of the benchmark's own parts: generators, reference, tracer.

Run from the repository root: python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import oracle
import tracer as tracer_mod

LATTICES = Path(__file__).resolve().parents[2] / "lattices"


def load(name: str) -> oracle.Structure:
    return oracle.Structure(json.loads((LATTICES / name).read_text(encoding="utf-8")))


# -- generators ----------------------------------------------------------------


def _inputs(seed: int) -> str:
    rng = random.Random(seed)
    files = gen.large_files(rng)
    data = json.loads((LATTICES / "chain_z_q.json").read_text(encoding="utf-8"))
    stream = gen.expression_stream(data, rng, 50)
    return "".join(gen.dump(d) for d in files.values()) + json.dumps([(t, b) for _, t, b in stream])


def test_same_seed_same_bytes():
    assert _inputs(11) == _inputs(11)
    assert _inputs(11) != _inputs(12)


def test_generated_files_are_valid_meadows():
    from meadows import latfile, meadow

    for name, data in gen.large_files(random.Random(3)).items():
        m = meadow.build_meadow(latfile.lattice_from_dict(data))
        assert m.size() == len(oracle.Structure(data).elements()), name


def _as_tree(t):
    from meadows import terms

    binary = {terms.Add: "+", terms.Sub: "-", terms.Mul: "*", terms.Div: "/"}
    if isinstance(t, terms.Numeral):
        return ("num", t.n)
    if isinstance(t, terms.ErrorConst):
        return ("a",)
    if isinstance(t, terms.Var):
        return ("var", t.name)
    if isinstance(t, terms.Neg):
        return ("neg", _as_tree(t.arg))
    if isinstance(t, terms.Pow):
        return ("^", _as_tree(t.base), t.exponent)
    return (binary[type(t)], _as_tree(t.left), _as_tree(t.right))


def test_rendered_expressions_parse_to_the_same_tree():
    from meadows import terms

    rng = random.Random(5)
    for _ in range(300):
        tree = gen.expression(rng)
        assert _as_tree(terms.parse(gen.render(tree))) == tree


# -- reference interpreter --------------------------------------------------------


def test_reference_hand_computed_cases():
    s = load("chain_z_q.json")
    assert oracle.evaluate(("/", ("num", 1), ("num", 0)), s, {}) == s.a
    assert s.format(oracle.evaluate(("/", ("num", 1), ("num", 0)), s, {})) == "a"
    half = oracle.evaluate(("^", ("num", 2), -1), s, {})
    assert half == ("q", Fraction(1, 2))
    assert s.format(half) == "1/2 @ q"
    assert oracle.evaluate(("^", ("num", 3), 4), s, {}) == ("z", 81)
    z = load("z.json")
    assert oracle.evaluate(("^", ("num", 2), -1), z, {}) == z.a
    assert oracle.evaluate(("^", ("neg", ("num", 1)), -3), z, {}) == ("z", -1)


@pytest.mark.parametrize("x", [("z", 5), ("z", 0), ("q", Fraction(-2, 3)), ("q", Fraction(0)), ("a", None)])
def test_reference_power_zero_is_one_plus_zero_times_x(x):
    s = load("chain_z_q.json")
    zero_times_x = oracle.evaluate(("*", ("num", 0), ("var", "x")), s, {"x": x})
    assert s.power(x, 0) == s.add(s.numeral(1), zero_times_x)
    assert s.power(x, 0)[0] == x[0]


def test_reference_theory_on_shipped_files():
    assert load("two_z3_ambiguous.json").ambiguous_element() is not None
    z6 = load("z6.json")
    assert z6.ambiguous_element() is None
    verdicts = z6.expected_verdicts()
    assert verdicts["NVL"] and not verdicts["CIL"] and not verdicts["AVL"]
    assert z6.ideal_counts() == (3, 2)  # 0, 2Z6 and 3Z6; the last two are maximal
    assert load("field_diamond.json").expected_verdicts()["StrongAssembly"] is False


def test_checks_reject_a_wrong_output():
    import workloads

    check = workloads._expect_text(lambda: "1 @ t\n")
    assert check((0, "1 @ t\n", "")) is None
    assert check((0, "2 @ t\n", "")) is not None
    assert check((1, "1 @ t\n", "")) is not None
    error = workloads._expect_error("InfiniteCarrier")
    assert error((1, "", '{"error": "InfiniteCarrier", "detail": ""}')) is None
    assert error((1, "", '{"error": "AmbiguousInverse", "detail": ""}')) is not None


# -- tracer ---------------------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [1, 4] has child [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tracer_mod.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_wrappers_pass_results_and_exceptions_through():
    t = tracer_mod.Tracer("no-such-package")
    marker = object()
    boom = ValueError("boom")

    def ok(a, b=2):
        return marker, a, b

    def fails():
        raise boom

    def outer():
        try:
            wrapped_fails()
        except ValueError:
            pass
        return wrapped_ok(1, b=3)

    wrapped_ok = t.wrap(ok, "inner.ok", "inner")
    wrapped_fails = t.wrap(fails, "inner.fails", "inner")
    wrapped_outer = t.wrap(outer, "outer.run", "outer")
    assert wrapped_ok(1) == (marker, 1, 2)
    assert wrapped_ok.__name__ == "ok"
    with pytest.raises(ValueError) as info:
        wrapped_fails()
    assert info.value is boom
    assert wrapped_outer() == (marker, 1, 3)
    t.flush()
    stats = {st.name: st for st in t.stats}
    assert stats["inner.ok"].calls == 2 and stats["inner.fails"].calls == 2
    assert stats["inner.fails"].escaped == 2  # once at top level, once into another layer
    assert stats["outer.run"].escaped == 0
    assert stats["outer.run"].self_s >= 0.0


def test_install_reaches_rebound_names_and_uninstall_restores():
    import meadows
    from meadows import axioms, cli, lattice, meadow, terms

    originals = (terms.eval_term, axioms.eval_term, cli.build_meadow, lattice.Lattice.meet)
    t = tracer_mod.Tracer("meadows")
    t.install({"terms": terms, "lattice": lattice, "meadow": meadow})
    try:
        assert axioms.eval_term is terms.eval_term is meadows.eval_term
        assert cli.eval_term is terms.eval_term is not originals[0]
        assert cli.build_meadow is meadow.build_meadow is not originals[2]
        assert meadow.dl_validate is lattice.dl_validate
        assert lattice.Lattice.meet is not originals[3]
        m = meadow.build_meadow(lattice.DirectedLattice(lattice.Lattice(["t", "a"], [("a", "t")]), {"t": meadows.rings.Mod(3), "a": meadows.rings.ZERO}))
        assert terms.format_element(terms.eval_term(terms.parse("2/2"), m)) == "1 @ t"
    finally:
        t.uninstall()
    t.flush()
    assert (terms.eval_term, axioms.eval_term, cli.build_meadow, lattice.Lattice.meet) == originals
    counts = {st.name: st.calls for st in t.stats}
    assert counts["lattice.Lattice.meet"] > 0 and counts["meadow.Meadow.inverse"] == 1


def test_every_per_layer_metric_names_a_traced_function():
    import run

    lib, mods = run.import_package()
    t = tracer_mod.Tracer("meadows")
    run.configure(t)
    t.install(mods)
    t.uninstall()
    metrics = run.layer_metrics(t)
    assert not t.missing
    assert set(run.PER_LAYER_NAMES) - set(metrics) == {"trace.overhead_ratio", "ref.cm_z12xz2.s", "ref.chain40_build.s", "ref.chain_z_q_inverse.us"}

