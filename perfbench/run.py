"""Benchmark of the meadows library and CLI; run from the repository root.

    python3 perfbench/run.py --workload cli_files --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``cli_files``, ``finite_verify`` and
``infinite_eval``.  Each run imports the package from ``src/``, builds its
inputs from the seed, then runs the workload's fixed operation list in a
closed loop (one caller, one thread) until at least one full pass is done
and ``--seconds`` of operation time have passed.  Operations that work on
a meadow built at set-up get a fresh meadow on its lattice each run
(``workloads.fresh``), so no run finds tables or caches an earlier run
left behind.  The process runs with
``PYTHONHASHSEED=0`` (it re-executes itself to get it), so the iteration
order of sets, and with it the work the library does, repeats from run to
run.

The machines this runs on share their cores with other tenants, whose
load slows one CPU, or both, by up to a factor of 1.5 for tens of seconds
at a time.  So successive runs of an operation alternate between the
usable CPUs, and the latencies are each operation's best run.  With
``--trace 0`` the metrics are end to end:

- setup_s: median of nine set-ups (fresh import of the package, input
  generation, loading and building), the first before the timed phase and
  the others spread over it, so that they meet the load of the whole run;
- ops_per_s: throughput of the fixed operation list: operations completed
  over busy time in the full passes, counting one run of each operation
  per pass (the extra runs described below only add latency samples);
- op_p50_ms: median over the operation list of each operation's latency,
  taken as the best of its runs, the estimate that load moves least;
- op_tail_ms: the same latency with ten operations of the list beyond it;
  the percentile and the sample counts are printed on the line before
  the result.  The operations ranked near these two positions run
  several times in every pass, so that their best runs rest on many
  samples (``focus_order``);
- peak_rss_mb: peak resident set size of the process.

With ``--trace 1`` the set-up and one pass over the list run under the
layer tracer (tracer.py), then an untraced phase of half the time gives
the throughput that ``trace.overhead_ratio`` compares against, and the
reference figures ``ref.*`` are timed untraced.  Spans are written to
``.bench_build/perfbench/trace-<workload>.spans.gz``.  A per-layer metric
whose function the package no longer has fails the run.

Every output is checked (workloads.py); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import gen
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PACKAGE = "meadows"
LAYERS = ("rings", "lattice", "meadow", "terms", "axioms", "enumeration", "morphisms", "latfile", "cli")
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# After the first pass, the operations ranked near the tail's and the
# median's position in the list get extra runs in every pass, aiming at
# FOCUS_S of busy time each per pass and at most FOCUS_REPEAT runs.
FOCUS_TAIL = 3  # operations on each side of the tail's rank
FOCUS_MEDIAN = 5  # operations on each side of the median's rank
FOCUS_S = 0.5
FOCUS_REPEAT = 12


def import_package():
    """A fresh import of the package from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no {PACKAGE} package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise SystemExit(f"error: imported {pkg.__file__}, not the checkout's package")
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    return argparse.Namespace(**mods), mods


def setup(workload: str, seed: int, workdir: Path, tracer: Tracer | None = None):
    lib, mods = import_package()
    if tracer is not None:
        tracer.install(mods)
    ops = workloads.WORKLOADS[workload](lib, ROOT, workdir, random.Random(seed))
    return lib, ops


def timed_setup(workload: str, seed: int, workdir: Path):
    """(seconds, lib, ops) of one set-up.

    The heap is collected first, so that the collector's passes fall at the
    same points of every set-up rather than wherever earlier work left its
    counters.
    """
    gc.collect()
    t0 = time.perf_counter()
    lib, ops = setup(workload, seed, workdir)
    return time.perf_counter() - t0, lib, ops


# ---------------------------------------------------------------------------
# the closed loop


class Outcome:
    """Latencies and outputs of every operation run, by position in the list."""

    def __init__(self, n: int):
        self.latencies: list[list[float]] = [[] for _ in range(n)]
        self.first: list[object] = [None] * n
        self.mismatched = [0] * n
        self.pass_s: list[float] = []  # per full pass, the time of each operation's first run in it

    def attempted(self) -> int:
        return sum(len(lat) for lat in self.latencies)


def run_ops(ops, seconds: float, outcome: Outcome, reference=None, tracer: Tracer | None = None, passes=None, interludes=()):
    """Run the list until ``passes`` full passes, or one pass and ``seconds``.

    ``interludes`` are ``(busy seconds, callable)`` pairs in order; each
    callable runs between two operations once that much operation time has
    passed, and is not counted in it.

    Outputs are compared with ``reference`` (the first outputs of an earlier
    phase) or, when None, with this phase's first pass.  Every pass runs
    each operation once; from the second pass on, the operations whose best
    run so far ranks near the tail or the median also run several more
    times, at shuffled positions (``focus_order``), so that the best runs
    that op_tail_ms and op_p50_ms report rest on many samples spread over
    the whole run.  Successive runs of an operation take the usable CPUs in
    turn: the other tenants of the host slow one CPU at a time, for tens of
    seconds, so an operation's best run should not depend on one CPU.
    """
    clock = time.perf_counter
    cpus = sorted(os.sched_getaffinity(0))
    order = list(range(len(ops)))
    busy, done = 0.0, 0
    interludes = list(interludes)
    try:
        while True:
            counted, pass_s = set(), 0.0
            for k in order:
                os.sched_setaffinity(0, {cpus[(k + len(outcome.latencies[k])) % len(cpus)]})
                t0 = clock()
                try:
                    out = ops[k].run()
                except Exception as exc:  # a failed operation is a result to report
                    out = workloads.Raised(type(exc).__name__, str(exc)[:200])
                dt = clock() - t0
                busy += dt
                outcome.latencies[k].append(dt)
                if k not in counted:
                    counted.add(k)
                    pass_s += dt
                base = reference[k] if reference is not None else (outcome.first[k] if done else None)
                if reference is None and not done:
                    outcome.first[k] = out
                elif out != base:
                    outcome.mismatched[k] += 1
                if tracer is not None:
                    tracer.maybe_flush()
                while interludes and busy >= interludes[0][0]:
                    interludes.pop(0)[1]()
                if passes is None and done and busy >= seconds:
                    return
            done += 1
            outcome.pass_s.append(pass_s)
            if (passes is not None and done >= passes) or (passes is None and busy >= seconds):
                return
            order = focus_order(outcome, done)
    finally:
        os.sched_setaffinity(0, cpus)


def focus_order(outcome: Outcome, seed: int) -> list[int]:
    """The next pass: every operation once, those ranked near the tail or median more often."""
    best = [min(lat) for lat in outcome.latencies]
    n = len(best)
    ranked = sorted(range(n), key=best.__getitem__)
    tail, mid = tail_rank(n), (n - 1) // 2
    focused = set(ranked[max(tail - FOCUS_TAIL, 0) : tail + FOCUS_TAIL + 1])
    focused |= set(ranked[max(mid - FOCUS_MEDIAN, 0) : mid + FOCUS_MEDIAN + 2])
    order = []
    for k in range(n):
        repeat = min(FOCUS_REPEAT, max(1, round(FOCUS_S / best[k]))) if k in focused else 1
        order += [k] * repeat
    random.Random(seed).shuffle(order)
    return order


def tail_rank(n: int) -> int:
    """Position, in ascending order, of the latency with TAIL_BEYOND above it."""
    return max(n - 1 - TAIL_BEYOND, 0)


def check_outputs(ops, outcome: Outcome) -> tuple[int, list[str]]:
    """Operations with a wrong output, counted per run, and the first messages."""
    failed, messages = 0, []
    for k, op in enumerate(ops):
        out = outcome.first[k]
        if isinstance(out, workloads.Raised):
            err = f"raised {out.error}: {out.detail}"
        else:
            try:
                err = op.check(out)
            except Exception as exc:  # a malformed output must not abort the report
                err = f"check failed with {type(exc).__name__}: {exc}"
        if err is not None:
            failed += len(outcome.latencies[k])
            messages.append(f"{op.label}: {err}")
        elif outcome.mismatched[k]:
            failed += outcome.mismatched[k]
            messages.append(f"{op.label}: output changed between runs")
    return failed, messages


def latency_summary(outcome: Outcome) -> dict:
    per_op = sorted(min(lat) for lat in outcome.latencies)
    n = len(per_op)
    tail_index = tail_rank(n)
    return {
        "ops_per_s": n / statistics.fmean(outcome.pass_s),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": per_op[tail_index] * 1e3,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "ops": n,
        "passes": len(outcome.pass_s),
        "samples": outcome.attempted(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced run


def configure(tracer: Tracer) -> None:
    pair = lambda self, x, y: (self, x, y)  # noqa: E731 (the key keeps the meadow, so no later one reuses its id)
    tracer.distinct_key("meadow.PreMeadow.add", pair)
    tracer.distinct_key("meadow.PreMeadow.mul", pair)
    tracer.distinct_key("lattice.DirectedLattice.transition", pair)
    tracer.distinct_key("rings.hom_apply", lambda h, v: (id(h), v))
    tracer.observe("axioms.check_axioms", lambda report: sum(law.checked for law in report.laws))
    tracer.observe("lattice.dl_validate", lambda report: sum(c.name.startswith("path_independence") for c in report.checks))
    tracer.observe("enumeration.enumerate_meadow_hom_maps", len)
    tracer.observe("enumeration.enumerate_meadow_ideals", len)
    tracer.observe("cli.main", lambda rc: int(rc != 0))
    tracer.inclusive(
        "axioms.check_axioms", "meadow.PreMeadow.freeze_tables", "lattice.Lattice.__init__",
        "lattice.dl_validate", "meadow.build_meadow", "morphisms.quotient", "morphisms.hom_build",
    )


def layer_metrics(tracer: Tracer) -> dict:
    sel = tracer.select

    def calls(*names):
        return sum(st.calls for st in sel(*names))

    def self_s(*names):
        return sum(st.self_s for st in sel(*names))

    def total_s(*names):
        return sum(st.total_s for st in sel(*names))

    def distinct_ratio(*names):
        n = calls(*names)
        return sum(len(st.distinct) for st in sel(*names)) / n if n else 0.0

    def observed(name):
        return sum(st.observed for st in sel(name))

    layer_self = {layer: self_s(f"{layer}.") for layer in LAYERS}
    tuples = observed("axioms.check_axioms")
    check_time = total_s("axioms.check_axioms")
    add_mul = ("meadow.PreMeadow.add", "meadow.PreMeadow.mul")
    arith = ("rings.add", "rings.mul", "rings.neg", "rings.sub")
    m = {
        "axioms.self_s": layer_self["axioms"],
        "axioms.tuples_checked": tuples,
        "axioms.tuples_per_s": tuples / check_time if check_time else 0.0,
        "terms.eval.self_s": self_s("terms.eval_term"),
        "meadow.add_mul.calls": calls(*add_mul),
        "meadow.add_mul.distinct_ratio": distinct_ratio(*add_mul),
        "meadow.freeze_tables.s": total_s("meadow.PreMeadow.freeze_tables"),
        "enumeration.self_s": layer_self["enumeration"],
        "enumeration.maps_found": observed("enumeration.enumerate_meadow_hom_maps"),
        "enumeration.ideals_found": observed("enumeration.enumerate_meadow_ideals"),
        "morphisms.hom_build.calls": calls("morphisms.hom_build"),
        "morphisms.hom_build.s": total_s("morphisms.hom_build"),
        "lattice.init.calls": calls("lattice.Lattice.__init__"),
        "lattice.init.s": total_s("lattice.Lattice.__init__"),
        "lattice.dl_validate.s": total_s("lattice.dl_validate"),
        "lattice.path_checks": observed("lattice.dl_validate"),
        "rings.hom_validate.calls": calls("rings.hom_validate"),
        "rings.hom_validate.self_s": self_s("rings.hom_validate"),
        "meadow.build.s": total_s("meadow.build_meadow"),
        "morphisms.quotient.s": total_s("morphisms.quotient"),
        "lattice.meet.calls": calls("lattice.Lattice.meet"),
        "lattice.down_set.calls": calls("lattice.Lattice.down_set"),
        "lattice.top_bottom.calls": calls("lattice.Lattice.top", "lattice.Lattice.bottom"),
        "lattice.transition.calls": calls("lattice.DirectedLattice.transition"),
        "lattice.transition.distinct_ratio": distinct_ratio("lattice.DirectedLattice.transition"),
        "lattice.self_s": layer_self["lattice"],
        "meadow.inverse.calls": calls("meadow.Meadow.inverse"),
        "meadow.inverse.self_s": self_s("meadow.Meadow.inverse"),
        "rings.hom_apply.calls": calls("rings.hom_apply"),
        "rings.hom_apply.self_s": self_s("rings.hom_apply"),
        "rings.hom_apply.distinct_ratio": distinct_ratio("rings.hom_apply"),
        "rings.arith.calls": calls(*arith),
        "rings.arith.self_s": self_s(*arith),
        "rings.is_unit.calls": calls("rings.is_unit"),
        "terms.parse.calls": calls("terms.parse"),
        "terms.parse.self_s": self_s("terms.parse"),
        "latfile.self_s": layer_self["latfile"],
        "latfile.load.calls": calls("latfile.load_lattice_file"),
        "cli.calls": calls("cli.main"),
        "cli.self_s": layer_self["cli"],
        "cli.exit_nonzero": observed("cli.main"),
    }
    for layer in LAYERS:
        m[f"{layer}.raised"] = sum(st.escaped for st in sel(f"{layer}."))
    return m


def reference_figures(lib) -> dict:
    """The ROADMAP's reference measurements, timed untraced, medians of three."""
    clock = time.perf_counter

    def timed(fn, repeats=3):
        out = []
        for _ in range(repeats):
            t0 = clock()
            fn()
            out.append(clock() - t0)
        return statistics.median(out)

    def build(data):
        return lib.meadow.build_meadow(lib.latfile.lattice_from_dict(data))

    z12xz2 = gen.CORPUS["z12xz2"]
    cm = timed(lambda: lib.axioms.check_axioms(build(z12xz2), "CM", exhaustive=True))
    cm -= timed(lambda: build(z12xz2))
    chain40 = gen.long_chain(40, 2)
    chain_build = timed(lambda: build(chain40))
    m = lib.meadow.build_meadow(lib.latfile.load_lattice_file(ROOT / "lattices" / "chain_z_q.json"))
    xs = [m.element("z", k) for k in range(-50, 50)] + [m.element("q", Fraction(k, 7)) for k in range(-50, 50)]
    inv = timed(lambda: [m.inverse(x) for x in xs], repeats=5) / len(xs)
    return {"ref.cm_z12xz2.s": cm, "ref.chain40_build.s": chain_build, "ref.chain_z_q_inverse.us": inv * 1e6}


# ---------------------------------------------------------------------------


def untraced_run(workload: str, seed: int, seconds: float, workdir: Path):
    elapsed, lib, ops = timed_setup(workload, seed, workdir)
    setups = [elapsed]

    def again():
        # the running operations keep using the modules of the first set-up
        kept = {name: mod for name, mod in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")}
        setups.append(timed_setup(workload, seed, workdir)[0])
        sys.modules.update(kept)

    interludes = [(seconds * k / SETUP_REPEATS, again) for k in range(1, SETUP_REPEATS)]
    outcome = Outcome(len(ops))
    run_ops(ops, seconds, outcome, interludes=interludes)
    while len(setups) < SETUP_REPEATS:
        again()
    summary = latency_summary(outcome)
    rss = peak_rss_mb()
    failed, messages = check_outputs(ops, outcome)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "op_p50_ms": (summary["op_p50_ms"], "ms"),
        "op_tail_ms": (summary["op_tail_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(
        f"# op_tail_ms is p{summary['tail_percentile']:.1f} over {summary['ops']} operations, "
        f"each the best of its runs ({summary['samples']} samples); ops_per_s over {summary['passes']} full passes; "
        f"fail_ratio {failed}/{outcome.attempted()}"
    )
    return outcome.attempted(), failed, messages, metrics


def traced_run(workload: str, seed: int, seconds: float, workdir: Path):
    BUILD.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(PACKAGE, path=BUILD / f"trace-{workload}.spans.gz")
    configure(tracer)
    try:
        lib, ops = setup(workload, seed, workdir, tracer)
        traced = Outcome(len(ops))
        run_ops(ops, seconds, traced, tracer=tracer, passes=1)
    finally:
        tracer.uninstall()
        tracer.close()
    plain = Outcome(len(ops))
    run_ops(ops, seconds / 2, plain, reference=traced.first)
    plain.first = traced.first
    failed, messages = check_outputs(ops, traced)
    failed += sum(plain.mismatched)
    messages += [f"{op.label}: untraced output differs" for op, n in zip(ops, plain.mismatched) if n]
    metrics = {name: (value, PER_LAYER_UNITS[name]) for name, value in layer_metrics(tracer).items()}
    if tracer.missing:
        raise SystemExit(f"error: per-layer metrics name functions the package does not have: {sorted(tracer.missing)}")
    ratio = latency_summary(traced)["ops_per_s"] / latency_summary(plain)["ops_per_s"]
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    for name, value in reference_figures(lib).items():
        metrics[name] = (value, PER_LAYER_UNITS[name])
    return traced.attempted() + plain.attempted(), failed, messages, metrics


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".us"):
        return "us"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


PER_LAYER_NAMES = (
    "axioms.self_s", "axioms.tuples_checked", "axioms.tuples_per_s", "terms.eval.self_s",
    "meadow.add_mul.calls", "meadow.add_mul.distinct_ratio", "meadow.freeze_tables.s",
    "enumeration.self_s", "enumeration.maps_found", "enumeration.ideals_found",
    "morphisms.hom_build.calls", "morphisms.hom_build.s",
    "lattice.init.calls", "lattice.init.s", "lattice.dl_validate.s", "lattice.path_checks",
    "rings.hom_validate.calls", "rings.hom_validate.self_s", "meadow.build.s", "morphisms.quotient.s",
    "lattice.meet.calls", "lattice.down_set.calls", "lattice.top_bottom.calls", "lattice.transition.calls",
    "lattice.transition.distinct_ratio", "lattice.self_s", "meadow.inverse.calls", "meadow.inverse.self_s",
    "rings.hom_apply.calls", "rings.hom_apply.self_s", "rings.hom_apply.distinct_ratio",
    "rings.arith.calls", "rings.arith.self_s", "rings.is_unit.calls",
    "terms.parse.calls", "terms.parse.self_s",
    "latfile.self_s", "latfile.load.calls", "cli.calls", "cli.self_s", "cli.exit_nonzero",
    *(f"{layer}.raised" for layer in LAYERS),
    "trace.overhead_ratio", "ref.cm_z12xz2.s", "ref.chain40_build.s", "ref.chain_z_q_inverse.us",
)
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER_NAMES}


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        run = traced_run if args.trace else untraced_run
        attempted, failed, messages, metrics = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in messages[:20]:
        print(f"# wrong output: {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
