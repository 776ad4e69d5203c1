"""Golden CLI outputs: every subcommand on every shipped file.

Each case runs ``meadow`` in-process and compares sha256 digests of its
stdout and stderr, and its exit code, with ``tests/data/cli_golden.json``.
Cases that end in an error (infinite carriers under ``table``, ambiguous
files, ideal files passed as lattices, mismatched ideals) are included.

To re-record after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

EXPR = "(2 + 1) / (2 - 1) * 2^-2 + 3"


def _files() -> tuple[list[str], list[str]]:
    paths = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "lattices").glob("*.json"))
    return paths, [p for p in paths if p.endswith("_ideal.json") or "_ideal_" in p]


def cases() -> dict[str, list[str]]:
    files, ideals = _files()
    out: dict[str, list[str]] = {}
    for path in files:
        commands = [
            ["check", path, "--suite", "all"],
            ["eval", path, EXPR],
            *(["table", path, "--op", op] for op in ("add", "mul", "inverse")),
            ["decompose", path],
            *(["quotient", path, "--ideal", ideal] for ideal in ideals),
        ]
        for argv in commands:
            for flags in ([], ["--json"]):
                out[" ".join(flags + argv)] = flags + argv
    return out


def run(argv: list[str]) -> dict:
    from meadows.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {
        "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(stderr.getvalue().encode()).hexdigest(),
        "exit": code,
    }


CASES = cases()


def test_golden_file_lists_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_digest(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    record = {name: run(argv) for name, argv in sorted(CASES.items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} cases in {GOLDEN}", file=sys.stderr)
