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

from meadows import latfile, rings
from meadows.cli import main
from meadows.errors import ParseError, RingTooLarge, UnknownNode, ValidationFailed
from meadows.latfile import (
    ideal_from_dict,
    lattice_from_dict,
    lattice_to_dict,
    load_lattice_file,
    value_from_json,
    value_to_json,
)
from meadows.meadow import PreMeadow, build_meadow
from meadows.morphisms import quotient

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
        {
            "name": c.name,
            "status": "pass" if c.passed else "fail",
            "witness": None if c.witness is None else [str(v) for v in c.witness],
            "checked": c.checked,
            "sampled": c.sampled,
        }
        for c in report.checks
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


def test_cli_calls_share_no_parsed_state(capsys):
    # the parser is built once per process; a binding must not reach the next call
    assert main(["eval", "lattices/chain_z_q.json", "x + 1", "--bind", "x=5@z"]) == 0
    assert capsys.readouterr().out.strip() == "6 @ z"
    assert main(["--json", "eval", "lattices/chain_z_q.json", "x + 1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "UnboundVariable", "detail": "variable 'x' has no binding"}


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


@pytest.mark.parametrize(
    "argv, seed",
    [(["lattices/z.json", "--seed", "5"], 5), (["lattices/z6.json", "--suite", "CIL", "--seed", "5"], None)],
    ids=["sampled", "exhaustive"],
)
def test_cli_json_check_gives_each_laws_tuple_count_and_a_samples_seed(argv, seed, capsys):
    code = main(["--json", "check", *argv])
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert main(["check", *argv]) == code
    text = capsys.readouterr().out.splitlines()
    counts = [f"[{law['checked']} tuples]" for report in reports for law in report["laws"]]
    assert counts == [line.split("  ")[3] for line in text if not line.startswith("suite ")]
    assert [report.get("seed") for report in reports] == [seed] * len(reports)


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


# Z4 -> Z2 by a table that is not additive: 1 + 1 = 2 -> 1, but 1 + 1 = 0 in Z2
NOT_ADDITIVE = _lattice(
    {"mod": 4}, {"mod": 2}, {"from": "t", "to": "m", "map": {"table": [[0, 0], [1, 1], [2, 1], [3, 0]]}}
)
# Z2 x Z2 -> Z2 by (x, y) -> xy, multiplicative but not additive
PRODUCT_OF_COORDINATES = _lattice(
    {"product": [{"mod": 2}, {"mod": 2}]},
    {"mod": 2},
    {"from": "t", "to": "m", "map": {"table": [[[x, y], x * y] for x in (0, 1) for y in (0, 1)]}},
)
# Z -> Z2 by a table of three integers: 1 + 1 has no entry
INTEGER_TABLE = _lattice("Z", {"mod": 2}, {"from": "t", "to": "m", "map": {"table": [[0, 0], [1, 1], [-1, 1]]}})


@pytest.mark.parametrize(
    "data, summary",
    [
        (NOT_ADDITIVE, "directed lattice: FAILED edge(t->m).additive; witness (1, 1) (2 of 15 checks failed)"),
        (
            PRODUCT_OF_COORDINATES,
            "directed lattice: FAILED edge(t->m).additive; witness ((0, 1), (1, 0)) (1 of 15 checks failed)",
        ),
        (
            INTEGER_TABLE,
            "directed lattice: FAILED edge(t->m).table_covers_source; witness (no table entry for 2) (1 of 14 checks failed)",
        ),
    ],
    ids=["residues", "product", "integers"],
)
def test_a_failing_load_names_its_witness_in_the_file_syntax(tmp_path, capsys, data, summary):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["eval", str(path), "1/2"]) == 1
    assert capsys.readouterr().err == f"error: ValidationFailed: {summary}\n"


def test_a_failing_load_gives_each_check_its_witness_count_and_sampling_in_json(tmp_path, capsys):
    checks = {}
    for name, data in (("residues", NOT_ADDITIVE), ("integers", INTEGER_TABLE)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert main(["--json", "eval", str(path), "1/2"]) == 1
        checks[name] = {c.pop("name"): c for c in json.loads(capsys.readouterr().err)["checks"]}
    residues, integers = checks["residues"], checks["integers"]
    assert residues["edge(t->m).additive"] == {"status": "fail", "witness": ["1", "1"], "checked": 16, "sampled": False}
    assert residues["edge(t->m).multiplicative"] == {
        "status": "fail",
        "witness": ["2", "2"],
        "checked": 16,
        "sampled": False,
    }
    assert residues["edge(t->m).preserves_one"] == {"status": "pass", "witness": None, "checked": 1, "sampled": False}
    assert residues["unique_top"] == {"status": "pass", "witness": ["t"], "checked": 0, "sampled": False}
    assert integers["edge(m->a).additive"] == {"status": "pass", "witness": None, "checked": 4, "sampled": False}
    assert integers["edge(t->m).table_covers_source"] == {
        "status": "fail",
        "witness": ["no table entry for 2"],
        "checked": 0,
        "sampled": False,
    }


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


def _z4_to_z2_table(entries):
    return _lattice({"mod": 4}, {"mod": 2}, {"from": "t", "to": "m", "map": {"table": entries}})


@pytest.mark.parametrize("last", [[3, 0], [7, 0]])
def test_a_table_giving_one_input_two_images_is_a_parse_error(last, tmp_path, capsys):
    # 7 is 3 in Z4, so both tables give 3 the images 1 and 0
    data = _z4_to_z2_table([[0, 0], [1, 1], [2, 0], [3, 1], last])
    with pytest.raises(ParseError, match="^the table Z4 -> Z2 maps 3 to two images, 1 and 0$"):
        lattice_from_dict(data)
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps(data))
    assert main(["--json", "eval", str(path), "1 + 1"]) == 1
    error = _single_json_error(capsys)
    assert error == {"error": "ParseError", "detail": "the table Z4 -> Z2 maps 3 to two images, 1 and 0"}


def test_a_table_repeating_an_entry_loads_with_the_entry_kept_twice():
    dl = lattice_from_dict(_z4_to_z2_table([[0, 0], [1, 1], [2, 0], [3, 1], [7, 1]]))
    graph = dl.edge_homs[("t", "m")].rule.graph
    assert [(i.payload, o.payload) for i, o in graph] == [(0, 0), (1, 1), (2, 0), (3, 1), (3, 1)]
    build_meadow(dl)


def test_cli_table_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    # the reader is gone before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "meadows", "table", "lattices/example_4_14.json", "--op", "add"],
            cwd=ROOT, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


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


# powers past the print limit, each refused before its value is computed:
# the digits and the degree came from one literal, and the exponents from nesting
HUGE_POWERS = {
    "integer": ("z.json", ["3^10000000"], "Z", "(3)^10000000"),
    "rational": ("chain_z_q.json", ["(2/3)^2000000"], "Q", "((2 / 3))^2000000"),
    "polynomial": ("glue_zp_towers.json", ["x^1000000", "--bind", "x=[1,1]@px"], "Z3[x]", "(x)^1000000"),
    "nested": ("z.json", ["((3^99)^99)^99"], "Z", "((3)^99)^99"),
}


@pytest.mark.parametrize("name", sorted(HUGE_POWERS))
def test_cli_json_refuses_a_power_past_the_print_limit_before_computing_it(name):
    lattice, args, ring, term = HUGE_POWERS[name]
    proc, seconds = _run_limited(["eval", f"lattices/{lattice}", *args])
    assert seconds < 1
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValueTooLarge"
    assert error["detail"].startswith(f"a value of {ring} ")
    assert error["detail"].endswith(f": {term}")


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


DEEP_ARRAY = "[" * 100000


def _deep_product_file(tmp_path):
    ring = {"mod": 2}
    for _ in range(300):
        ring = {"product": [ring]}
    return _one_node_file(tmp_path, "deep_product", ring)


def _deep_array_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_ARRAY)
    return path


# nesting past the recursion limit: 100,000 open arrays in a lattice file, an
# ideal file and a --bind value, which json cannot read, and products nested
# 300 deep in a lattice file, which it can, but the ring's str could not
DEEP_NESTING = {
    "lattice_file": (lambda tmp: ["eval", str(_deep_array_file(tmp)), "1"], "cannot read "),
    "ideal_file": (lambda tmp: ["quotient", "lattices/z.json", "--ideal", str(_deep_array_file(tmp))], "cannot read "),
    "binding": (lambda tmp: ["eval", "lattices/z.json", "x", "--bind", f"x={DEEP_ARRAY}@z"], "cannot read the value of binding 'x': "),
    "product": (lambda tmp: ["eval", str(_deep_product_file(tmp)), "1"], "a ring spec nests products more than 32 deep"),
}


@pytest.mark.parametrize("name", sorted(DEEP_NESTING))
def test_cli_json_reports_nesting_past_the_recursion_limit_as_one_parse_error(name, tmp_path):
    argv, detail = DEEP_NESTING[name]
    proc, seconds = _run_limited(argv(tmp_path))
    assert seconds < 5
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ParseError"
    assert error["detail"].startswith(detail)


def test_products_nest_up_to_the_depth_limit():
    ring = {"mod": 2}
    for _ in range(latfile.MAX_PRODUCT_DEPTH):
        ring = {"product": [ring]}
    assert str(latfile.ring_from_json(ring)) == "(" * 32 + "Z2" + ")" * 32
    with pytest.raises(ParseError, match="more than 32 deep"):
        latfile.ring_from_json({"product": [ring]})


def test_cli_json_quotes_a_long_bad_value_in_part(capsys):
    # json reads 900 nested arrays, the ring refuses them: the error quotes
    # the value's first MAX_ECHO characters and its length, not all of it
    value = "[" * 900 + "]" * 900
    assert main(["--json", "eval", "lattices/z.json", "x", "--bind", f"x={value}@z"]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.err)
    assert error["error"] == "ParseError"
    assert error["detail"].startswith("bad value " + "[" * latfile.MAX_ECHO + "... (1800 characters) for Z: ")
    assert len(captured.err) < 4 * latfile.MAX_ECHO + 100
    # a short one is quoted whole
    assert main(["--json", "eval", "lattices/z.json", "x", "--bind", "x=[[1]]@z"]) == 1
    detail = json.loads(capsys.readouterr().err)["detail"]
    assert detail.startswith("bad value [[1]] for Z: ") and "..." not in detail


@pytest.mark.parametrize("binding, error, detail", [
    ("x=7@t", "UnknownNode", "unknown node 't'"),
    ("x7@z", "ParseError", "binding 'x7@z' is not of the form name=value@node"),
    ("x=7", "ParseError", "binding 'x=7' is missing the @node part"),
])
def test_cli_json_names_a_bad_binding_by_its_own_error(binding, error, detail, capsys):
    # a node outside the lattice is an UnknownNode, as in an ideal file; a
    # binding without its = or @ is unreadable, like an unreadable value
    assert main(["--json", "eval", "lattices/z6.json", "x", "--bind", binding]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": error, "detail": detail}


def test_cli_json_quotients_a_carrier_past_the_table_bound(tmp_path):
    # 4,101 elements: the quotient map is checked without the carrier's tables
    path = tmp_path / "large_chain.json"
    path.write_text(json.dumps(_lattice({"mod": 4098}, {"mod": 2}, {"from": "t", "to": "m", "map": {"reduce_mod": 2}})))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"t": "zero", "m": "whole"}))
    proc, seconds = _run_limited(["quotient", str(path), "--ideal", str(ideal)])
    assert seconds < 5
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["collapsed"] == ["a", "m"]
    assert data["lattice"]["nodes"]["t"]["ring"] == {"mod": 4098}


def test_cli_json_refuses_a_quotient_table_past_the_cell_bound_before_building_it(tmp_path, monkeypatch, capsys):
    # Z_2049 is the least residue ring past the cell bound; the factor table
    # of the edge t -> m would be a table hom out of it
    def refuse(*args):
        raise AssertionError("the factor table was built")

    monkeypatch.setattr(rings, "table_hom", refuse)
    path = tmp_path / "z_chain.json"
    path.write_text(json.dumps(_lattice("Z", "Z", {"from": "t", "to": "m", "map": "identity"})))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"t": {"nZ": 2049}, "m": {"nZ": 2049}}))
    assert main(["--json", "quotient", str(path), "--ideal", str(ideal)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "RingTooLarge",
        "detail": "Z2049 has 2049 elements: its tables would have 4198401 cells, more than the 4194304 that are built",
    }


def test_a_table_hom_out_of_a_ring_past_the_cell_bound_is_refused_when_loaded(tmp_path, capsys):
    # the hom is checked on additive generators, which needs no table, but the
    # file is refused as it was when the check built the source's tables
    path = tmp_path / "z2049.json"
    table = {"table": [[k, k % 3] for k in range(2049)]}
    path.write_text(json.dumps(_lattice({"mod": 2049}, {"mod": 3}, {"from": "t", "to": "m", "map": table})))
    assert main(["--json", "eval", str(path), "1"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "RingTooLarge",
        "detail": "Z2049 has 2049 elements: its tables would have 4198401 cells, more than the 4194304 that are built",
    }


@pytest.mark.parametrize("subset", [[0], [0, 1]])
def test_a_subset_ideal_on_a_ring_past_the_listing_limit_is_refused(tmp_path, capsys, subset):
    # building the ideal does not list Z_2000003; the CLI refuses the file
    # when it loads the meadow, and quotient refuses the ideal of an
    # unchecked pre-meadow when it lists the ring
    detail = "Z2000003 has 2000003 elements, more than the 1048576 that can be listed"
    data = _lattice({"mod": 2000003})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"t": {"subset": subset}}))
    assert main(["--json", "quotient", str(path), "--ideal", str(ideal)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "RingTooLarge", "detail": detail}
    m = PreMeadow(lattice_from_dict(data))
    with pytest.raises(RingTooLarge, match=detail):
        quotient(m, ideal_from_dict({"t": {"subset": subset}}, m))


# an nZ that is not an integer of at least 1, on Z and on the Z node of Z -> Q
BAD_NZ = {
    "float": ("z.json", {"z": {"nZ": 2.5}, "a": "whole"}),
    "huge_float": ("z.json", {"z": {"nZ": 1e300}, "a": "whole"}),
    "float_on_chain": ("chain_z_q.json", {"z": {"nZ": 2.5}}),
    "boolean": ("z.json", {"z": {"nZ": True}, "a": "whole"}),
}


@pytest.mark.parametrize("name", sorted(BAD_NZ))
def test_cli_json_reports_an_nz_that_is_not_a_positive_integer_as_one_parse_error(name, tmp_path):
    lattice, data = BAD_NZ[name]
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(data))
    proc, _seconds = _run_limited(["quotient", f"lattices/{lattice}", "--ideal", str(ideal)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ParseError"


@pytest.mark.parametrize("index", [True, 1.0, "1"], ids=["boolean", "float", "string"])
def test_cli_json_reports_a_project_index_that_is_not_an_integer_as_one_parse_error(index, tmp_path):
    # true once passed as factor 1, and 1.0 reached the compiled map
    data = {
        "nodes": {"t": {"ring": {"product": [{"mod": 2}, {"mod": 3}]}}, "m": {"ring": {"mod": 3}}, "a": {"ring": "zero"}},
        "order": [["a", "m"], ["m", "t"]],
        "homs": [{"from": "t", "to": "m", "map": {"project": index}}],
    }
    path = tmp_path / "project.json"
    path.write_text(json.dumps(data))
    proc, _seconds = _run_limited(["eval", str(path), "1 + 1"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ParseError",
        "detail": f"malformed lattice file: ValueError: no factor {index!r} in (Z2 x Z3)",
    }


@pytest.mark.parametrize("modulus", [0, 1, 3, 2.0, True, "2"], ids=["zero", "one", "non_divisor", "float", "boolean", "string"])
def test_cli_json_reports_a_reduce_mod_that_does_not_divide_its_source_as_one_parse_error(modulus, tmp_path):
    # 0 once ended in a ZeroDivisionError traceback, and 2.0 passed the divisibility check
    data = {
        "nodes": {"t": {"ring": {"mod": 4}}, "m": {"ring": {"mod": 2}}, "a": {"ring": "zero"}},
        "order": [["a", "m"], ["m", "t"]],
        "homs": [{"from": "t", "to": "m", "map": {"reduce_mod": modulus}}],
    }
    path = tmp_path / "reduce_mod.json"
    path.write_text(json.dumps(data))
    proc, _seconds = _run_limited(["eval", str(path), "1 + 1"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ParseError",
        "detail": f"malformed lattice file: ValueError: cannot reduce Z4 mod {modulus!r}: "
        "the modulus must be an integer >= 2 that divides 4",
    }


def test_cli_json_reports_an_ideal_file_naming_an_unknown_node(tmp_path, capsys):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"z6": {"subset": [0, 3]}, "zz": "whole", "a": "whole"}))
    assert main(["--json", "quotient", "lattices/z6.json", "--ideal", str(ideal)]) == 1
    found = _single_json_error(capsys)
    assert found["error"] == "UnknownNode"
    assert "'zz'" in found["detail"]


@pytest.mark.parametrize(
    "samples, flags",
    [
        pytest.param("-5", ["lattices/z.json"], id="-5"),
        pytest.param("0", ["lattices/z.json"], id="0"),
        pytest.param("0", ["lattices/z6.json", "--exhaustive"], id="exhaustive-0"),
    ],
)
def test_cli_json_refuses_a_sample_budget_below_one(samples, flags, capsys):
    assert main(["--json", "check", *flags, "--suite", "PM", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "InvalidBudget",
        "detail": f"a sample budget must be at least 1 tuple, not {samples}",
    }
