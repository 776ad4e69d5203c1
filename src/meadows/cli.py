"""Command line front end.

Subcommands: check, eval, table, decompose, quotient.  With --json, errors
go to stderr as one JSON object and the exit status is nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import axioms, rings
from .errors import MeadowError, ParseError, UnknownNode
from .latfile import (
    lattice_to_dict,
    load_ideal_file,
    load_lattice_file,
    value_from_json,
)
from .meadow import Meadow, build_meadow
from .morphisms import quotient
from .terms import bind_env, eval_term, format_element, parse

CHECK_SUITES = ("PM", "CM", "NVL", "AVL", "CIL")


def _load_meadow(path) -> Meadow:
    return build_meadow(load_lattice_file(path), mode="verify")


def _parse_binding(meadow: Meadow, text: str):
    name, _, rest = text.partition("=")
    if not rest:
        raise ParseError(f"binding {text!r} is not of the form name=value@node")
    value_text, _, node = rest.partition("@")
    if not node:
        raise ParseError(f"binding {text!r} is missing the @node part")
    desc = None
    for n in meadow.lattice.nodes:
        if str(n) == node:
            desc = meadow.dl.ring_at[n]
            node = n
            break
    if desc is None:
        raise UnknownNode(f"unknown node {node!r}")
    try:
        raw = json.loads(value_text)
    except RecursionError as exc:
        raise ParseError(f"cannot read the value of binding {name.strip()!r}: {exc}") from exc
    except ValueError:  # JSONDecodeError, or an int past the int/str digit limit
        raw = value_text  # bare fractions like 1/2
    return name.strip(), meadow.element(node, value_from_json(desc, raw))


def cmd_check(args) -> int:
    meadow = _load_meadow(args.file)
    suites = CHECK_SUITES if args.suite == "all" else (args.suite,)
    exhaustive = True if args.exhaustive else (None if args.samples is None else False)
    all_ok = True
    for suite in suites:
        report = axioms.check_axioms(
            meadow,
            suite,
            budget=512 if args.samples is None else args.samples,
            seed=args.seed,
            exhaustive=exhaustive,
        )
        all_ok = all_ok and report.ok
        if args.json:
            print(json.dumps(report.to_json_dict()))
        else:
            print(report.to_text())
    return 0 if all_ok else 1


def cmd_eval(args) -> int:
    meadow = _load_meadow(args.file)
    env = {}
    for item in args.bind or ():
        name, elem = _parse_binding(meadow, item)
        env[name] = elem
    result = eval_term(parse(args.expr), meadow, bind_env(meadow, env))
    print(format_element(result))
    return 0


def cmd_table(args) -> int:
    ix = _load_meadow(args.file).freeze_tables()
    names = [format_element(x) for x in ix.elements]
    if args.op == "inverse":
        rows = [f"{x} ^-1 = {names[k]}" for x, k in zip(names, ix.inverse)]
    else:
        table, symbol = (ix.add, "+") if args.op == "add" else (ix.mul, "*")
        rows = [
            f"{x} {symbol} {y} = {names[k]}"
            for x, row in zip(names, table)
            for y, k in zip(names, row)
        ]
    print("\n".join(rows))
    return 0


def cmd_decompose(args) -> int:
    meadow = _load_meadow(args.file)
    dl = meadow.decompose().to_directed_lattice()
    print(json.dumps(lattice_to_dict(dl), indent=2))
    return 0


def cmd_quotient(args) -> int:
    meadow = _load_meadow(args.file)
    ideal = load_ideal_file(args.ideal, meadow)
    result = quotient(meadow, ideal)
    payload = {
        "tag": "meadow" if result.is_meadow else "pre_meadow",
        "collapsed": sorted(str(n) for n in result.collapsed),
        "lattice": lattice_to_dict(result.quotient.dl),
    }
    print(json.dumps(payload, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="meadow", description="total-division arithmetic over lattices of rings"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable errors on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom suites against a lattice file")
    p.add_argument("file")
    p.add_argument("--suite", choices=CHECK_SUITES + ("all",), default="CM")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("file")
    p.add_argument("expr")
    p.add_argument("--bind", action="append", metavar="x=<value>@<node>")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("table", help="print a full operation table (finite only)")
    p.add_argument("file")
    p.add_argument("--op", choices=("add", "mul", "inverse"), required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("decompose", help="emit the component decomposition as a lattice file")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("quotient", help="emit the quotient by an ideal file")
    p.add_argument("file")
    p.add_argument("--ideal", required=True)
    p.set_defaults(func=cmd_quotient)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a reader that has gone is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): the rest of the output,
        # and the flush at exit, go to devnull instead of raising
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except MeadowError as exc:
        if args.json:
            detail = {"error": type(exc).__name__, "detail": str(exc)}
            report = getattr(exc, "report", None)
            if report is not None:
                detail["checks"] = [c.to_json_dict() for c in report.checks]
            print(json.dumps(detail), file=sys.stderr)
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
