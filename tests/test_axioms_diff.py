"""check_axioms and find_counterexample against the element scan they replaced.

``element_scan`` is the law scan that every carrier without a certified
finite index used: each side of each premise and alternative is evaluated
by ``eval_term`` on a dict of bound ``MeadowElement``s.  Here it runs on
every carrier, certified finite ones included, through
``reference_check_axioms``, which picks the pool and the sampling exactly
as ``check_axioms`` does (``axioms._check_law`` is shared).

For every suite, the report (mode, and each law's name, status, witnesses
and checked count) or the exception (type and message) must be the same:
- on the corpus finite meadows, verified and built lazily, and on a few
  pre-meadows;
- on ``corpus.broken_table_chain()``, whose exhaustive checks fail several
  laws of one arity at once, as a pre-meadow and as a meadow taken as
  verified and built lazily;
- on ``corpus.chain_z_q()`` and every shipped file, the ambiguous files
  built lazily;
- on the infinite carriers, with hypothesis-drawn budgets and seeds;
- on one meadow per carrier run through the suites of ``meadow check
  --suite all`` in order, sampled on the finite ones, and then
  through hypothesis-drawn runs: the suites share the meadow's lazy index,
  and each report must be the one a fresh meadow gives, also after an
  earlier suite raised ``AmbiguousInverse`` mid-scan.
``find_counterexample`` must agree with the element scan on the lattices
of ``tests/test_axioms.py``, for every law name.
"""

from __future__ import annotations

import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from meadows import axioms, cli, rings
from meadows.errors import AmbiguousInverse, InfiniteCarrier
from meadows.latfile import load_lattice_file
from meadows.meadow import Meadow, PreMeadow, build_meadow, build_premeadow
from meadows.report import EXHAUSTIVE, AxiomReport, sampled
from meadows.terms import eval_term

import corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent
SUITES = sorted(axioms.SUITES)
LAW_NAMES = sorted({l.name for laws in axioms.SUITES.values() for l in laws})


def element_scan(l: axioms.Law, m):
    def holds(env) -> bool:
        if any(
            (eval_term(p_lhs, m, env) == eval_term(p_rhs, m, env)) != want
            for p_lhs, p_rhs, want in l.premises
        ):
            return True
        return any(eval_term(lhs, m, env) == eval_term(rhs, m, env) for lhs, rhs in l.alternatives)

    def scan(tuples):
        checked = 0
        for checked, combo in enumerate(tuples, 1):
            if not holds(dict(zip(l.variables, combo))):
                return checked, combo
        return checked, None

    return scan


def reference_check_axioms(m, suite, budget=512, seed=0, exhaustive=None) -> AxiomReport:
    if suite not in axioms.SUITES:
        raise ValueError(f"unknown suite {suite!r}; options: {sorted(axioms.SUITES)}")
    laws = axioms.SUITES[suite]
    if any(l.needs_inverse for l in laws) and not isinstance(m, Meadow):
        raise ValueError(f"suite {suite!r} uses the inverse and needs a meadow")
    finite = m.is_finite()
    if exhaustive is None:
        max_arity = max((len(l.variables) for l in laws), default=0)
        exhaustive = finite and len(m.probe_pool()) ** max_arity <= axioms.EXHAUSTIVE_TUPLE_LIMIT
    if exhaustive and not finite:
        raise InfiniteCarrier("exhaustive checking needs a finite carrier")
    pool = m.probe_pool()
    if suite == "AssemblyMul":
        pool = [x for x in pool if m.zero_of(x) == m.zero_of(m.inverse(x))]
    rng = random.Random(seed)
    results = [axioms._check_law(l, element_scan(l, m), pool, exhaustive, budget, rng) for l in laws]
    complete = exhaustive or (finite and all(len(pool) ** len(l.variables) <= budget for l in laws))
    return AxiomReport(suite=suite, mode=EXHAUSTIVE if complete else sampled(budget), laws=results)


def reference_find_counterexample(dl, law_name: str, mode_budget: int = 512, seed: int = 0):
    m = Meadow(dl, status="lazy")
    l = next(l for laws in axioms.SUITES.values() for l in laws if l.name == law_name)
    scan = element_scan(l, m)
    result = axioms._check_law(l, scan, m.probe_pool(), m.is_finite(), mode_budget, random.Random(seed))
    return tuple(result.witnesses[0]) if result.witnesses else None


def outcome(fn, *args, **kwargs):
    """What a call returned, as comparable data, or the exception it raised."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    if isinstance(result, AxiomReport):
        laws = [(r.name, r.status, [tuple(w) for w in r.witnesses], r.checked) for r in result.laws]
        return result.suite, result.mode, laws
    return result


def _carriers():
    """(name, builders): each builder makes the same carrier anew; the first is also the reference's."""
    out = []
    for name, m in corpus.finite_meadows():
        out.append((f"corpus:{name}", (lambda m=m: build_meadow(m.dl, mode="lazy"), lambda m=m: m)))
    for name in ("z6_split_diamond", "chain_z4_z2", "z2xz3"):
        dl = dict(corpus.valid_finite_lattices())[name]
        out.append((f"premeadow:{name}", (lambda dl=dl: build_premeadow(dl),)))
    broken = corpus.broken_table_chain
    out.append(("premeadow:broken_table_chain", (lambda: PreMeadow(broken()),)))
    out.append(("broken_table_chain", (lambda: Meadow(broken(), "verified"), lambda: Meadow(broken(), "lazy"))))
    out.append(("corpus:chain_z_q", (lambda: build_meadow(corpus.chain_z_q()),)))
    for path in sorted((ROOT / "lattices").glob("*.json")):
        if "ideal" not in path.stem:
            mode = "lazy" if "ambiguous" in path.stem else "verify"
            build = lambda path=path, mode=mode: build_meadow(load_lattice_file(path), mode=mode)  # noqa: E731
            out.append((f"file:{path.stem}", (build,)))
    return out


CARRIERS = _carriers()
INFINITE = [(name, builders[0]) for name, builders in CARRIERS if not builders[0]().is_finite()]


@pytest.mark.parametrize("name, builders", CARRIERS, ids=[name for name, _ in CARRIERS])
def test_check_axioms_matches_the_element_scan(name, builders):
    # corpus meadows are checked built lazily and verified
    for suite in SUITES:
        want = outcome(reference_check_axioms, builders[0](), suite)
        for make in builders:
            assert outcome(axioms.check_axioms, make(), suite) == want, suite


BROKEN_FAILURES = {
    "PM": ["PM1", "PM5", "PM8"],
    "CM": ["M1", "M5", "M8", "M11"],
    "Identities": ["-(x*y) = x*(-y)", "(-x)*(-y) = x*y", "(-1)*x = -x"],
    "AssemblyMul": ["U-closure"],
    "NVL": ["NVL"],
    "CIL": ["CIL"],
}


@pytest.mark.parametrize("make", [PreMeadow, lambda dl: Meadow(dl, "verified")], ids=["premeadow", "verified"])
def test_several_failing_laws_of_one_group_each_match_the_element_scan(make):
    # an exhaustive check scans each arity's laws together; each failing law
    # keeps its own first witness and count, and the scan runs on past it
    for suite in ("PM",) if make is PreMeadow else SUITES:
        got = outcome(axioms.check_axioms, make(corpus.broken_table_chain()), suite, exhaustive=True)
        assert got == outcome(reference_check_axioms, make(corpus.broken_table_chain()), suite, exhaustive=True)
        assert got[1] == EXHAUSTIVE
        assert [name for name, status, _, _ in got[2] if status == "fail"] == BROKEN_FAILURES.get(suite, []), suite


@pytest.mark.parametrize("name, make", INFINITE, ids=[name for name, _ in INFINITE])
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(suite=st.sampled_from(SUITES), budget=st.integers(1, 300), seed=st.integers(0, 2**32))
def test_check_axioms_matches_the_element_scan_on_drawn_samples(name, make, suite, budget, seed):
    got = outcome(axioms.check_axioms, make(), suite, budget=budget, seed=seed)
    assert got == outcome(reference_check_axioms, make(), suite, budget=budget, seed=seed)


def _cli_runs(m):
    """The suites of ``meadow check --suite all``, sampled on a finite carrier.

    Sampled, a finite carrier reads the lazy index as an infinite one
    does; its exhaustive checks are the test above.
    """
    kwargs = {"exhaustive": False, "budget": 200, "seed": 3} if m.is_finite() else {}
    return [(suite, kwargs) for suite in cli.CHECK_SUITES]


def _shared_runs(m, make, runs):
    """Each run's outcome on the shared meadow ``m``, checked against a fresh ``make()``."""
    outcomes = []
    for suite, kwargs in runs:
        got = outcome(axioms.check_axioms, m, suite, **kwargs)
        assert got == outcome(reference_check_axioms, make(), suite, **kwargs), (suite, kwargs)
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("name, builders", CARRIERS, ids=[name for name, _ in CARRIERS])
def test_suites_sharing_one_meadow_match_the_element_scan(name, builders):
    # corpus meadows are checked built lazily and verified
    for make in builders:
        outcomes = _shared_runs(make(), builders[0], _cli_runs(make()))
        if "ambiguous" in name:  # CM raised mid-scan, and the suites after it still matched
            assert outcomes[cli.CHECK_SUITES.index("CM")][:2] == ("raised", AmbiguousInverse)


RUNS = st.lists(
    st.tuples(
        st.sampled_from(SUITES),
        st.fixed_dictionaries({"budget": st.integers(1, 300), "seed": st.integers(0, 2**32)}),
    ),
    min_size=1,
    max_size=3,
)


@pytest.mark.parametrize("name, make", INFINITE, ids=[name for name, _ in INFINITE])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs=RUNS)
def test_drawn_runs_sharing_one_meadow_match_the_element_scan(name, make, runs):
    m = make()
    for suite, kwargs in _cli_runs(m):  # checked by the test above
        outcome(axioms.check_axioms, m, suite, **kwargs)
    _shared_runs(m, make, runs)


# ``_check_law`` is shared with the reference above, so its seeded draws
# are checked here against ``random.Random.choice``, which they replaced
@given(n=st.integers(2, 300), count=st.integers(0, 60), seed=st.integers(0, 2**32))
def test_sampled_draws_are_rng_choice_draws(n, count, seed):
    pool = [object() for _ in range(n)]
    got, want = random.Random(seed), random.Random(seed)
    assert list(axioms._choices(got, pool, count)) == [want.choice(pool) for _ in range(count)]
    assert got.getstate() == want.getstate()


COUNTEREXAMPLE_LATTICES = {
    "two_z3_ambiguous": corpus.two_z3_ambiguous,
    "chain_z_q": corpus.chain_z_q,
    "broken_square_diamond": corpus.broken_square_diamond,
    "z6_z2_into_z3": lambda: corpus.chain(rings.Mod(6), rings.mod_to_mod(6, 2), rings.Mod(3)),
}


@pytest.mark.parametrize("name", sorted(COUNTEREXAMPLE_LATTICES))
def test_find_counterexample_matches_the_element_scan(name):
    make = COUNTEREXAMPLE_LATTICES[name]
    for law_name in LAW_NAMES:
        got = outcome(axioms.find_counterexample, make(), law_name)
        assert got == outcome(reference_find_counterexample, make(), law_name), law_name
