"""Lattice file loading, serialization round trips and the CLI."""

import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from meadows import rings
from meadows.cli import main
from meadows.errors import ParseError, UnknownNode, ValidationFailed
from meadows.latfile import (
    ideal_from_dict,
    lattice_from_dict,
    lattice_to_dict,
    load_lattice_file,
    value_from_json,
    value_to_json,
)
from meadows.meadow import build_meadow

ROOT = pathlib.Path(__file__).resolve().parent.parent

SHIPPED = [
    "lattices/chain_z_q.json",
    "lattices/z.json",
    "lattices/z6.json",
    "lattices/z2z2.json",
    "lattices/field_diamond.json",
    "lattices/example_4_14.json",
    "lattices/glue_zp_towers.json",
]


@pytest.mark.parametrize("path", SHIPPED)
def test_shipped_files_load_and_build(path):
    dl = load_lattice_file(path)
    build_meadow(dl, mode="verify")


def test_ambiguous_files_fail_at_build():
    from meadows.errors import AmbiguousInverse

    for path in ("lattices/two_q_ambiguous.json", "lattices/two_z3_ambiguous.json"):
        dl = load_lattice_file(path)
        with pytest.raises(AmbiguousInverse):
            build_meadow(dl, mode="verify")


def test_chain_file_is_the_expected_meadow():
    m = build_meadow(load_lattice_file("lattices/chain_z_q.json"), mode="verify")
    assert m.inverse(m.element("z", 2)) == m.element("q", "1/2")


def test_missing_zero_node_is_a_parse_error():
    with pytest.raises(ParseError):
        lattice_from_dict({"nodes": {"x": {"ring": "Z"}}, "order": []})


def test_zero_node_must_be_minimum():
    data = {
        "nodes": {"z": {"ring": "zero"}, "q": {"ring": "Q"}},
        "order": [["q", "z"]],
    }
    with pytest.raises(ParseError):
        lattice_from_dict(data)


def test_hom_on_non_cover_pair_rejected():
    data = {
        "nodes": {"t": {"ring": {"mod": 4}}, "m": {"ring": {"mod": 2}}, "a": {"ring": "zero"}},
        "order": [["a", "m"], ["m", "t"]],
        "homs": [{"from": "t", "to": "a", "map": {"table": [[0, None]]}}],
    }
    with pytest.raises(ParseError):
        lattice_from_dict(data)


def test_validation_failure_carries_report(tmp_path):
    bad = {
        "nodes": {"t": {"ring": {"mod": 4}}, "b": {"ring": {"mod": 2}}, "a": {"ring": "zero"}},
        "order": [["a", "b"], ["b", "t"]],
        "homs": [{"from": "t", "to": "b", "map": {"table": [[0, 0], [1, 1], [2, 1], [3, 1]]}}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationFailed) as exc:
        load_lattice_file(path)
    assert exc.value.report.failures()


def test_float_value_in_a_file_is_a_parse_error():
    with pytest.raises(ParseError):
        value_from_json(rings.Q, 0.1)
    with pytest.raises(ParseError):
        value_from_json(rings.Product((rings.Mod(2), rings.Mod(3))), [True, 1])


def test_cli_validates_a_lattice_file_once(monkeypatch, capsys):
    from meadows import lattice

    calls = []
    real = lattice.lattice_validate

    def counting(L):
        calls.append(L)
        return real(L)

    monkeypatch.setattr(lattice, "lattice_validate", counting)
    assert main(["eval", "lattices/z6.json", "2 * 3"]) == 0
    assert capsys.readouterr().out.strip() == "0 @ z6"
    assert len(calls) == 1


def test_cli_invalid_file_reports_validation_failure(tmp_path, capsys):
    bad = {
        "nodes": {"t": {"ring": {"mod": 4}}, "b": {"ring": {"mod": 2}}, "a": {"ring": "zero"}},
        "order": [["a", "b"], ["b", "t"]],
        "homs": [{"from": "t", "to": "b", "map": {"table": [[0, 0], [1, 1], [2, 1], [3, 1]]}}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["--json", "check", str(path)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValidationFailed"
    with pytest.raises(ValidationFailed) as exc:
        load_lattice_file(path)
    report = exc.value.report
    assert payload["detail"] == report.summary()
    assert payload["checks"] == [
        {"name": c.name, "status": "pass" if c.passed else "fail"} for c in report.checks
    ]


def test_lattice_dict_round_trip():
    dl = load_lattice_file("lattices/field_diamond.json")
    data = lattice_to_dict(dl)
    dl2 = lattice_from_dict(data)
    m1 = build_meadow(dl, mode="verify")
    m2 = build_meadow(dl2, mode="verify")
    assert m1.operation_table("add") == m2.operation_table("add")


def test_value_json_round_trip():
    cases = [
        (rings.Q, "2/3"),
        (rings.Q, 4),
        (rings.Mod(6), 4),
        (rings.Product((rings.Mod(2), rings.Mod(3))), [1, 2]),
        (rings.Poly(rings.Mod(3)), [1, 0, 2]),
    ]
    for desc, raw in cases:
        v = value_from_json(desc, raw)
        assert value_from_json(desc, value_to_json(v)) == v


def _product_value(values):
    return rings.ring_value(rings.Product(tuple(v.ring for v in values)), values)


LEAF_VALUES = st.one_of(
    st.integers().map(lambda k: rings.ring_value(rings.Z, k)),
    st.fractions().map(lambda f: rings.ring_value(rings.Q, f)),
    st.builds(lambda n, k: rings.ring_value(rings.Mod(n), k), st.integers(2, 50), st.integers()),
    st.lists(st.fractions(), max_size=4).map(lambda cs: rings.ring_value(rings.Poly(rings.Q), cs)),
    st.builds(
        lambda p, cs: rings.ring_value(rings.Poly(rings.Mod(p), "t"), cs),
        st.sampled_from([2, 3, 5, 7]),
        st.lists(st.integers(), max_size=4),
    ),
    st.just(rings.ring_value(rings.ZERO, None)),
)
VALUES = st.recursive(
    LEAF_VALUES,
    lambda inner: st.lists(inner.filter(lambda v: v.ring != rings.ZERO), min_size=1, max_size=3).map(_product_value),
    max_leaves=6,
)


@given(VALUES)
def test_value_json_round_trip_on_every_descriptor_kind(v):
    data = json.loads(json.dumps(value_to_json(v)))
    assert value_from_json(v.ring, data) == v


def test_ideal_defaults(tmp_path):
    m = build_meadow(load_lattice_file("lattices/z6.json"), mode="verify")
    ideal = ideal_from_dict({}, m)  # all zero ideals, whole at the bottom
    from meadows.morphisms import WholeRing, ZeroIdeal

    assert isinstance(ideal.spec_at("z6"), ZeroIdeal)
    assert isinstance(ideal.spec_at("a"), WholeRing)


# -- CLI ---------------------------------------------------------------------


def test_cli_eval_division_by_zero(capsys):
    assert main(["eval", "lattices/chain_z_q.json", "1/0"]) == 0
    assert capsys.readouterr().out.strip() == "a"


def test_cli_eval_with_binding(capsys):
    code = main(["eval", "lattices/chain_z_q.json", "x + a", "--bind", "x=5@z"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "a"


def test_cli_eval_inverse(capsys):
    assert main(["eval", "lattices/chain_z_q.json", "2^-1"]) == 0
    assert capsys.readouterr().out.strip() == "1/2 @ q"


def test_cli_check_pass_and_fail(capsys):
    assert main(["check", "lattices/z6.json", "--suite", "CM", "--exhaustive"]) == 0
    capsys.readouterr()
    assert main(["check", "lattices/two_q_ambiguous.json", "--suite", "CM"]) == 1
    err = capsys.readouterr().err
    assert "AmbiguousInverse" in err


def test_cli_check_json_error(capsys):
    code = main(["--json", "check", "lattices/two_q_ambiguous.json", "--suite", "CM"])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "AmbiguousInverse"


def test_cli_check_cil_fails_on_z6(capsys):
    assert main(["check", "lattices/z6.json", "--suite", "CIL", "--exhaustive"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_inverse_table(capsys):
    assert main(["table", "lattices/z6.json", "--op", "inverse"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    by_element = dict(line.split(" ^-1 = ") for line in lines)
    assert by_element["0 @ z6"] == "a"
    assert by_element["2 @ z6"] == "a"
    assert by_element["3 @ z6"] == "a"
    assert by_element["4 @ z6"] == "a"
    assert by_element["5 @ z6"] == "5 @ z6"
    assert by_element["1 @ z6"] == "1 @ z6"


def test_cli_decompose_emits_loadable_lattice(capsys):
    assert main(["decompose", "lattices/z6.json"]) == 0
    data = json.loads(capsys.readouterr().out)
    dl = lattice_from_dict(data)
    m = build_meadow(dl, mode="verify")
    assert m.size() == 7


def test_cli_quotient(capsys):
    code = main(["quotient", "lattices/z6.json", "--ideal", "lattices/z6_ideal_2.json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tag"] == "meadow"
    assert data["lattice"]["nodes"]["z6"]["ring"] == {"mod": 2}


def test_cli_quotient_example_4_14(capsys):
    code = main(
        ["quotient", "lattices/example_4_14.json", "--ideal", "lattices/example_4_14_ideal.json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data["lattice"]["nodes"]) == ["M0", "M1", "M5", "a"]


def test_cli_error_exit_code(capsys):
    assert main(["eval", "lattices/chain_z_q.json", "x + 1"]) == 1
    assert "UnboundVariable" in capsys.readouterr().err


def _lattice(top_ring, lower_ring=None, hom=None):
    """A chain top > (lower >) a; ``hom`` is the homs entry for top -> lower."""
    data = {"nodes": {"t": {"ring": top_ring}, "a": {"ring": "zero"}}, "order": [["a", "t"]]}
    if lower_ring is not None:
        data["nodes"]["m"] = {"ring": lower_ring}
        data["order"] = [["a", "m"], ["m", "t"]]
        data["homs"] = [hom]
    return data


MALFORMED_LATTICES = {
    "mod_one": _lattice({"mod": 1}),
    "mod_string": _lattice({"mod": "3"}),
    "empty_product": _lattice({"product": []}),
    "poly_over_z": _lattice({"poly": {"base": "Z", "var": "x"}}),
    "node_without_ring": {"nodes": {"t": {}, "a": {"ring": "zero"}}, "order": [["a", "t"]]},
    "string_node_spec": {"nodes": {"t": "Z", "a": {"ring": "zero"}}, "order": [["a", "t"]]},
    "nodes_as_list": {"nodes": [{"ring": "Z"}, {"ring": "zero"}], "order": []},
    "order_triple": {**_lattice({"mod": 2}), "order": [["a", "t", "a"]]},
    "hom_not_object": _lattice({"mod": 4}, {"mod": 2}, 5),
    "hom_without_map": _lattice({"mod": 4}, {"mod": 2}, {"from": "t", "to": "m"}),
    "project_out_of_range": _lattice(
        {"product": [{"mod": 2}, {"mod": 2}]}, {"mod": 2}, {"from": "t", "to": "m", "map": {"project": 7}}
    ),
    "reduce_mod_non_divisor": _lattice(
        {"mod": 4}, {"mod": 3}, {"from": "t", "to": "m", "map": {"reduce_mod": 3}}
    ),
}

MALFORMED_IDEALS = {"ideal_list": [], "ideal_nz_zero": {"z6": {"nZ": 0}}}


def _single_json_error(capsys) -> dict:
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    return json.loads(lines[0])


@pytest.mark.parametrize("name", sorted(MALFORMED_LATTICES))
def test_cli_malformed_lattice_file_is_a_parse_error(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_LATTICES[name]))
    assert main(["--json", "check", str(path)]) == 1
    assert _single_json_error(capsys)["error"] == "ParseError"


@pytest.mark.parametrize("name", sorted(MALFORMED_IDEALS))
def test_cli_malformed_ideal_file_is_a_parse_error(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_IDEALS[name]))
    assert main(["--json", "quotient", "lattices/z6.json", "--ideal", str(path)]) == 1
    assert _single_json_error(capsys)["error"] == "ParseError"


def test_unknown_node_in_order_is_not_rewrapped():
    data = {**_lattice({"mod": 2}), "order": [["a", "nowhere"]]}
    with pytest.raises(UnknownNode):
        lattice_from_dict(data)


# 5,000 digits is past Python's int/str conversion limit, so ``json`` itself
# raises ValueError on the file before any meadow code reads it
HUGE = "7" * 5000
OVERSIZED = {
    "lattice": (
        '{"nodes": {"t": {"ring": {"mod": %s}}, "a": {"ring": "zero"}}, "order": [["a", "t"]]}' % HUGE,
        ["check", "{path}"],
    ),
    "ideal": ('{"z": {"nZ": %s}}' % HUGE, ["quotient", "lattices/z.json", "--ideal", "{path}"]),
}


@pytest.mark.parametrize("kind", sorted(OVERSIZED))
def test_cli_json_reports_an_oversized_integer_in_a_file_as_one_error(tmp_path, kind):
    text, argv = OVERSIZED[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    argv = [a.format(path=path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "meadows", "--json", *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ParseError"


# text that int() refused inside the parser: a digit that is not decimal,
# or a literal or exponent past Python's int/str conversion limit
BAD_LITERALS = {
    "superscript_digit": ("²", 0),
    "superscript_exponent": ("2^²", 2),
    "huge_literal": ("1 + " + HUGE, 4),
    "huge_exponent": ("2^-" + HUGE, 3),
}


@pytest.mark.parametrize("name", sorted(BAD_LITERALS))
def test_cli_json_reports_a_bad_literal_as_one_syntax_error(name):
    text, position = BAD_LITERALS[name]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "meadows", "--json", "eval", "lattices/z.json", text],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "TermSyntaxError"
    assert error["detail"].endswith(f"(at position {position})")


# results past Python's int/str conversion limit: an integer and a rational
TOO_LARGE = {
    "integer": ("lattices/z.json", "2^100000", "Z"),
    "rational": ("lattices/chain_z_q.json", "1/3^10000", "Q"),
}


@pytest.mark.parametrize("name", sorted(TOO_LARGE))
def test_cli_json_reports_a_value_too_large_to_print_as_one_error(name):
    path, text, ring = TOO_LARGE[name]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "meadows", "--json", "eval", path, text],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValueTooLarge"
    assert error["detail"].startswith(f"a value of {ring} ")


# the address-space limit of a CLI child that may try to allocate without bound
CHILD_MEMORY = 2**30


def _run_limited(argv):
    """``meadow --json *argv`` in a child whose address space is ``CHILD_MEMORY``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "meadows", "--json", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit,
    )
    return proc, time.perf_counter() - start


def _one_node_file(tmp_path, name, ring):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"nodes": {"t": {"ring": ring}, "a": {"ring": "zero"}}, "order": [["a", "t"]]}))
    return path


# finite rings too large to list, each named in the error: a ~10^14 residue
# ring, and polynomials over ~10^14 and ~10^18 prime fields; a modulus past
# the exact primality bound is a parse error; a 20,011-element ring lists,
# but its add and mul tables are past the cell bound
LARGE = {"mod": 20011}
HUGE_RINGS = {
    "residues": ({"mod": 100000000000031}, ["check"], "RingTooLarge: Z100000000000031 has "),
    "polynomials": ({"poly": {"base": {"mod": 100000000000031}}}, ["eval", "1 + 1"], "RingTooLarge: Z100000000000031 has "),
    "polynomials_1e18": (
        {"poly": {"base": {"mod": 1000000000000000003}}}, ["eval", "1 + 1"], "RingTooLarge: Z1000000000000000003 has "
    ),
    "polynomials_past_the_prime_bound": (
        {"poly": {"base": {"mod": rings.PRIME_TEST_LIMIT}}}, ["eval", "1 + 1"], "ParseError: "
    ),
    "add_table": (LARGE, ["table", "--op", "add"], "RingTooLarge: the carrier has 20012 elements: "),
    "mul_table": (LARGE, ["table", "--op", "mul"], "RingTooLarge: the carrier has 20012 elements: "),
    "exhaustive_check": (LARGE, ["check", "--exhaustive"], "RingTooLarge: the carrier has 20012 elements: "),
}


@pytest.mark.parametrize("name", sorted(HUGE_RINGS))
def test_cli_json_reports_a_ring_too_large_to_list_as_one_error(name, tmp_path):
    ring, (command, *options), expected = HUGE_RINGS[name]
    proc, seconds = _run_limited([command, str(_one_node_file(tmp_path, name, ring)), *options])
    assert seconds < 5
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    found = json.loads(lines[0])
    assert f"{found['error']}: {found['detail']}".startswith(expected)


def test_cli_json_samples_the_laws_of_a_large_finite_ring(tmp_path):
    proc, seconds = _run_limited(["check", str(_one_node_file(tmp_path, "large", LARGE)), "--suite", "all"])
    assert seconds < 5
    assert proc.returncode == 0, proc.stderr
    reports = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["suite"] for r in reports] == ["PM", "CM", "NVL", "AVL", "CIL"]
    assert {r["mode"] for r in reports} == {"sampled:512"}


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_cli_json_refuses_a_sample_budget_below_one(samples, capsys):
    assert main(["--json", "check", "lattices/z.json", "--suite", "PM", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "InvalidBudget",
        "detail": f"a sample budget must be at least 1 tuple, not {samples}",
    }
