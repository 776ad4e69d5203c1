"""The benchmark's workloads: seeded inputs, the operations, and their checks.

An operation (``Op``) is one ``meadows.cli.main`` call, one library verdict
or enumeration, or one parse plus its evaluation.  ``run`` performs it and
returns its output; ``check`` judges the first output of each operation
against an oracle that does not trust the library (``oracle.py``, theory,
or the stored values in ``data/expected.json``) and returns an error
message or None.  Operations reach the library through module attributes
at call time, so a traced run sees the tracer's wrappers.  An operation on
a meadow built at set-up runs on a fresh copy each time (``fresh``).

Every workload runs in one process, one caller, one thread, closed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

import gen
import oracle

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "data" / "expected.json").read_text(encoding="utf-8"))


class Raised(NamedTuple):
    """Output of an operation that raised instead of returning."""

    error: str
    detail: str


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# cli_files


def _cli(lib, argv: list[str]):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(["--json", *argv])
        return rc, out.getvalue(), err.getvalue()

    return run


def _expect_error(cls: str):
    def check(output):
        rc, out, err = output
        try:
            got = json.loads(err)["error"]
        except (ValueError, KeyError, TypeError):
            got = None
        if rc != 1 or out or got != cls:
            return f"expected exit 1 with {cls}, got exit {rc} and {err.strip()[:120]!r}"
        return None

    return check


def _expect_text(text_of: Callable[[], str]):
    def check(output):
        rc, out, err = output
        if rc != 0 or err:
            return f"expected exit 0, got exit {rc}: {err.strip()[:120]!r}"
        want = text_of()
        if out != want:
            return f"output differs from the reference (first difference near {_first_diff(out, want)!r})"
        return None

    return check


def _first_diff(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return a[max(0, i - 30) : i + 30]
    return a[min(len(a), len(b)) - 30 :]


def _table_text(s: oracle.Structure, op: str) -> str:
    fmt, xs = s.format, s.elements()
    if op == "inverse":
        rows = [f"{fmt(x)} ^-1 = {fmt(s.inverse(x))}" for x in xs]
    else:
        f, sym = (s.add, "+") if op == "add" else (s.mul, "*")
        rows = [f"{fmt(x)} {sym} {fmt(y)} = {fmt(f(x, y))}" for x in xs for y in xs]
    return "\n".join(rows) + "\n"


def _check_verdicts(s_of, expected_of):
    def check(output):
        rc, out, err = output
        try:
            got = [(d["suite"], all(law["status"] == "pass" for law in d["laws"])) for d in map(json.loads, out.splitlines())]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable check output: {exc}"
        want = expected_of(s_of())
        want_list = [(suite, want[suite]) for suite in ("PM", "CM", "NVL", "AVL", "CIL")]
        if got != want_list:
            return f"verdicts {got} != expected {want_list}"
        if rc != (0 if all(v for _, v in want_list) else 1) or err:
            return f"exit {rc} does not match the verdicts"
        return None

    return check


def _check_decompose(s_of):
    def check(output):
        rc, out, err = output
        if rc != 0 or err:
            return f"expected exit 0, got exit {rc}: {err.strip()[:120]!r}"
        s, d = s_of(), oracle.Structure(json.loads(out))
        if d.nodes != s.nodes or d.ring != s.ring or d.down != s.down:
            return "decomposition changed the nodes, rings or order"
        xs = s.elements()
        for x in xs:
            for y in xs:
                if d.add(x, y) != s.add(x, y) or d.mul(x, y) != s.mul(x, y):
                    return f"decomposition changes an operation at {x}, {y}"
        return None

    return check


def _check_sha256(digest: str):
    def check(output):
        rc, out, err = output
        if rc != 0 or err or hashlib.sha256(out.encode()).hexdigest() != digest:
            return f"output differs from the stored value (exit {rc})"
        return None

    return check


def _shipped_verdicts(name: str):
    def expected(s: oracle.Structure) -> dict:
        if s.is_finite():
            return s.expected_verdicts()
        two = len(s.nodes) == 2
        return {
            "PM": True,
            "CM": True,
            "NVL": two,
            "CIL": two and oracle.is_field(s.ring[s.top]),
            "AVL": EXPECTED["infinite_avl"][name],
        }

    return expected


def _cached(fn):
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _eval_args(data: dict, rng: random.Random):
    """A seeded closed expression over x, with x bound at a random node."""
    tree = gen.expression(rng, variables=("x",))
    (node, raw), = gen.bindings(data, rng, variables=("x",)).values()
    argv = [gen.render(tree), "--bind", f"x={json.dumps(raw)}@{node}"]
    return tree, node, raw, argv


def cli_files(lib, root: Path, workdir: Path, rng: random.Random) -> list[Op]:
    """Every subcommand on every shipped lattice file, plus seeded larger files.

    The shipped ambiguous files and ``table``/``decompose`` on infinite
    carriers are expected failures with a known exit code and error class.
    """
    shipped = sorted(p for p in (root / "lattices").glob("*.json") if "_ideal" not in p.name)
    ideals = {p.name.split("_ideal")[0] + ".json": p for p in (root / "lattices").glob("*_ideal*.json")}
    files = [(p, json.loads(p.read_text(encoding="utf-8")), True) for p in shipped]
    for name, data in gen.large_files(rng).items():
        path = workdir / f"{name}.json"
        path.write_text(gen.dump(data), encoding="utf-8")
        files.append((path, data, False))

    ops = []
    for path, data, is_shipped in files:
        s_of = _cached(lambda data=data: oracle.Structure(data))
        name, arg = path.name, str(path)
        tree, node, raw, eval_argv = _eval_args(data, rng)

        def eval_text(s_of=s_of, tree=tree, node=node, raw=raw):
            s = s_of()
            x = (node, oracle.r_value(s.ring[node], raw))
            return s.format(oracle.evaluate(tree, s, {"x": x})) + "\n"

        def table_text(op, s_of=s_of):
            return lambda: _table_text(s_of(), op)

        error = EXPECTED["shipped_errors"].get(name)
        finite = oracle.Structure(data).is_finite()
        if not is_shipped:
            ops.append(Op(f"eval {name}", _cli(lib, ["eval", arg, *eval_argv]), _expect_text(eval_text)))
            continue
        commands = {
            "check": (["check", arg, "--suite", "all"], _check_verdicts(s_of, _shipped_verdicts(name))),
            "eval": (["eval", arg, *eval_argv], _expect_text(eval_text)),
            "decompose": (["decompose", arg], _check_decompose(s_of)),
        }
        for op in ("add", "mul", "inverse"):
            commands[f"table {op}"] = (["table", arg, "--op", op], _expect_text(table_text(op)))
        if name in ideals:
            digest = EXPECTED["quotient_sha256"][name]
            commands["quotient"] = (["quotient", arg, "--ideal", str(ideals[name])], _check_sha256(digest))
        for label, (argv, check) in commands.items():
            if error is not None:
                check = _expect_error(error)
            elif not finite and (label.startswith("table") or label == "decompose"):
                check = _expect_error("InfiniteCarrier")
            ops.append(Op(f"{label} {name}", _cli(lib, argv), check))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# finite_verify

FINITE_SET = (
    "z2", "z3", "z6", "z2xz3", "chain_z4_z2", "field_diamond3",
    "z6_split", "z2_diamond", "prod_z2_z3", "glue_z2_z2",
)
CHARACTERIZATIONS = ("NVL_struct", "AVL_struct", "NVL_AVL_struct", "CIL_struct")


def finite_corpus(name: str) -> dict:
    if name == "prod_z2_z3":
        return gen.product(gen.CORPUS["z2"], gen.CORPUS["z3"])
    if name == "glue_z2_z2":
        return gen.glue(gen.CORPUS["z2"], gen.CORPUS["z2"], 2)
    return gen.CORPUS[name]


def fresh(lib, m):
    """A meadow on ``m``'s lattice without ``m``'s tables or caches.

    Operations that reuse a meadow start from one of these, so that every
    run pays what one call on a new meadow pays (element lists, frozen
    tables) and a cache kept on the meadow cannot answer a later run.  The
    lattice was validated and the inverse certified at set-up, so the
    construction path stays out of the timed operation.
    """
    return lib.meadow.Meadow(m.dl, m.status)


def finite_verify(lib, root: Path, workdir: Path, rng: random.Random) -> list[Op]:
    """Exhaustive law checks, characterizations, hom and ideal search."""
    meadows, refs = {}, {}
    for name in FINITE_SET:
        data = gen.shuffled(finite_corpus(name), rng, "v")
        meadows[name] = lib.meadow.build_meadow(lib.latfile.lattice_from_dict(data))
        refs[name] = _cached(lambda data=data: oracle.Structure(data))

    ops = []
    for name, m in meadows.items():
        for suite in lib.axioms.SUITES:

            def run(m=m, suite=suite):
                report = lib.axioms.check_axioms(fresh(lib, m), suite, exhaustive=True)
                return report.ok, report.mode

            def check(output, name=name, suite=suite):
                want = refs[name]().expected_verdicts().get(suite)
                if output != (want, "exhaustive"):
                    return f"{suite} on {name}: got {output}, expected ({want}, 'exhaustive')"
                return None

            ops.append(Op(f"check {suite} {name}", run, check))
        for which in CHARACTERIZATIONS:
            ops.append(Op(
                f"{which} {name}",
                lambda m=m, which=which: lib.axioms.check_characterizations(fresh(lib, m), which).ok,
                lambda ok, which=which, name=name: None if ok is True else f"{which} fails on {name}",
            ))
        counts = _cached(lambda name=name: refs[name]().ideal_counts())
        ops.append(Op(
            f"ideals {name}",
            lambda m=m: len(lib.enumeration.enumerate_meadow_ideals(fresh(lib, m))),
            lambda n, counts=counts: None if n == counts()[0] else f"{n} proper ideals, expected {counts()[0]}",
        ))
        ops.append(Op(
            f"maximal ideals {name}",
            lambda m=m: len(lib.enumeration.maximal_ideals(fresh(lib, m))),
            lambda n, counts=counts: None if n == counts()[1] else f"{n} maximal ideals, expected {counts()[1]}",
        ))
    for src, dst, count in EXPECTED["hom_counts"]["pairs"]:

        def homs(a=meadows[src], b=meadows[dst]):
            a, b = fresh(lib, a), fresh(lib, b)
            maps = lib.enumeration.enumerate_meadow_hom_maps(a, b)
            return len([lib.morphisms.hom_from_carrier_map(a, b, mp) for mp in maps])

        ops.append(Op(
            f"homs {src}->{dst}",
            homs,
            lambda n, want=count: None if n == want else f"{n} homs, expected {want}",
        ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# infinite_eval

EVAL_CARRIERS = ("chain_z_q.json", "z.json", "glue_zp_towers.json")
EXPRESSIONS_PER_CARRIER = 400


def raw_element(x) -> tuple:
    """(node name, payload) of a library element, payloads as in oracle.py."""

    def raw(v):
        p = v.payload
        if isinstance(p, tuple) and p and hasattr(p[0], "payload"):
            return tuple(raw(c) for c in p)
        return p

    return str(x.node), raw(x.value)


def infinite_eval(lib, root: Path, workdir: Path, rng: random.Random) -> list[Op]:
    """A seeded stream of expressions over three infinite carriers."""
    ops = []
    for carrier in EVAL_CARRIERS:
        path = root / "lattices" / carrier
        data = json.loads(path.read_text(encoding="utf-8"))
        m = lib.meadow.build_meadow(lib.latfile.load_lattice_file(path))
        s_of = _cached(lambda data=data: oracle.Structure(data))
        for tree, text, binds in gen.expression_stream(data, rng, EXPRESSIONS_PER_CARRIER):
            env = {
                var: m.element(node, lib.latfile.value_from_json(m.dl.ring_at[node], raw))
                for var, (node, raw) in binds.items()
            }

            def check(x, tree=tree, binds=binds, s_of=s_of):
                s = s_of()
                env_ref = {var: (node, oracle.r_value(s.ring[node], raw)) for var, (node, raw) in binds.items()}
                want = oracle.evaluate(tree, s, env_ref)
                got = raw_element(x)
                return None if got == want else f"got {got}, reference {want}"

            ops.append(Op(
                f"eval {carrier} {text}",
                lambda text=text, m=m, env=env: lib.terms.eval_term(lib.terms.parse(text), fresh(lib, m), env),
                check,
            ))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"cli_files": cli_files, "finite_verify": finite_verify, "infinite_eval": infinite_eval}
