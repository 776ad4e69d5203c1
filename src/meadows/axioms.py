"""Equational law suites with exhaustive or seeded-sample checking.

Every law is data: a name plus equation text parsed by the expression
parser, so the tables below are simultaneously the documentation and the
executable definition.  Guarded laws carry premises ("x != a"), and a law
may be a disjunction of equations (separated by '|').
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from . import rings
from .errors import InfiniteCarrier, InvalidBudget
from .meadow import Meadow, PreMeadow
from .report import EXHAUSTIVE, AxiomReport, LawResult, sampled
from .terms import (
    Add,
    Div,
    ErrorConst,
    Inv,
    Mul,
    Neg,
    Numeral,
    Pow,
    Sub,
    Term,
    Var,
    _power,
    eval_term,
    parse,
)

EXHAUSTIVE_TUPLE_LIMIT = 10_000


@dataclass(frozen=True)
class Law:
    name: str
    variables: tuple[str, ...]
    premises: tuple[tuple[Term, Term, bool], ...]  # (lhs, rhs, must_be_equal)
    alternatives: tuple[tuple[Term, Term], ...]  # law holds if any equation does
    needs_inverse: bool


def _variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for f in getattr(t, "__dataclass_fields__", {}):
        v = getattr(t, f)
        if isinstance(v, Term):
            out |= _variables(v)
    return out


def _uses_inverse(t: Term) -> bool:
    if isinstance(t, (Div, Inv)):
        return True
    if isinstance(t, Pow) and t.exponent < 0:
        return True
    for f in getattr(t, "__dataclass_fields__", {}):
        v = getattr(t, f)
        if isinstance(v, Term) and _uses_inverse(v):
            return True
    return False


def _split_equation(text: str) -> tuple[Term, Term, bool]:
    if "!=" in text:
        lhs, rhs = text.split("!=")
        return parse(lhs), parse(rhs), False
    lhs, rhs = text.split("=")
    return parse(lhs), parse(rhs), True


def law(name: str, body: str, given: tuple[str, ...] = ()) -> Law:
    premises = tuple(_split_equation(g) for g in given)
    alternatives = tuple(_split_equation(alt)[:2] for alt in body.split("|"))
    names: set[str] = set()
    needs_inv = False
    for lhs, rhs, _ in premises:
        names |= _variables(lhs) | _variables(rhs)
        needs_inv = needs_inv or _uses_inverse(lhs) or _uses_inverse(rhs)
    for lhs, rhs in alternatives:
        names |= _variables(lhs) | _variables(rhs)
        needs_inv = needs_inv or _uses_inverse(lhs) or _uses_inverse(rhs)
    return Law(name, tuple(sorted(names)), premises, alternatives, needs_inv)


PM_LAWS = (
    law("PM1", "(x + y) + z = x + (y + z)"),
    law("PM2", "x + y = y + x"),
    law("PM3", "x + 0 = x"),
    law("PM4", "x + (-x) = 0*x"),
    law("PM5", "(x*y)*z = x*(y*z)"),
    law("PM6", "x*y = y*x"),
    law("PM7", "1*x = x"),
    law("PM8", "x*(y + z) = x*y + x*z"),
    law("PM9", "-(-x) = x"),
    law("PM10", "0*(x + y) = 0*x*y"),
)

# M1-M9 are PM1-PM9 under their CM names
CM_LAWS = tuple(replace(pm, name="M" + pm.name[2:]) for pm in PM_LAWS[:9]) + (
    law("M10", "x * x^-1 = 1 + 0*x^-1"),
    law("M11", "(x*y)^-1 = x^-1 * y^-1"),
    law("M12", "(1 + 0*x)^-1 = 1 + 0*x"),
    law("M13", "0^-1 = a"),
    law("M14", "x + a = a"),
)

IDENTITY_LAWS = (
    law("0*0 = 0", "0*0 = 0"),
    law("-0 = 0", "-0 = 0"),
    law("0*x = 0*(-x)", "0*x = 0*(-x)"),
    law("-(x*y) = x*(-y)", "-(x*y) = x*(-y)"),
    law("(-x)*(-y) = x*y", "(-x)*(-y) = x*y"),
    law("(-1)*x = -x", "(-1)*x = -x"),
    law("0*(x*x) = 0*x", "0*(x*x) = 0*x"),
    law("(x*x^-1)*x^-1 = x^-1", "(x*x^-1)*x^-1 = x^-1"),
    law("(-x)^-1 = -(x^-1)", "(-x)^-1 = -(x^-1)"),
    law("(x*x^-1)^-1 = x*x^-1", "(x*x^-1)^-1 = x*x^-1"),
    law("(x^-1)^-1 = x + 0*x^-1", "(x^-1)^-1 = x + 0*x^-1"),
    law("x*a = a", "x*a = a"),
    law("-a = a", "-a = a"),
    law("a^-1 = a", "a^-1 = a"),
    law("0*x = a -> x = a", "x = a", given=("0*x = a",)),
    law("0*x*y = 0 -> 0*x = 0", "0*x = 0", given=("0*x*y = 0",)),
)

ASSEMBLY_ADD_LAWS = (
    law("A1-identity", "x + 0*x = x"),
    law("A1-unique", "0*x + f = 0*x", given=("x + f = x",)),
    law("A2-inverse", "x + (-x) = 0*x"),
    law("A2-stable", "0*(-x) = 0*x"),
    law("A3", "0*(x + y) = 0*x + 0*y"),
)

ASSEMBLY_MUL_LAWS = (
    law("U-closure", "0*(x*y) = 0*((x*y)^-1)"),
    law("A1-identity", "x*(1 + 0*x) = x"),
    law("A1-unique", "(1 + 0*x)*f = 1 + 0*x", given=("x*f = x",)),
    law("A2-inverse", "x * x^-1 = 1 + 0*x"),
    law("A2-stable", "1 + 0*(x^-1) = 1 + 0*x"),
    law("A3", "1 + 0*(x*y) = (1 + 0*x)*(1 + 0*y)"),
)

STRONG_ASSEMBLY_LAWS = (
    law("A3'", "0*(x + y) = 0*x | 0*(x + y) = 0*y"),
)

NVL_LAWS = (law("NVL", "0*x = 0", given=("x != a",)),)
AVL_LAWS = (law("AVL", "0*x = x", given=("x^-1 = a",)),)
CIL_LAWS = (law("CIL", "x * x^-1 = 1", given=("x != 0", "x != a")),)

SUITES: dict[str, tuple[Law, ...]] = {
    "PM": PM_LAWS,
    "CM": CM_LAWS,
    "Identities": IDENTITY_LAWS,
    "AssemblyAdd": ASSEMBLY_ADD_LAWS,
    "AssemblyMul": ASSEMBLY_MUL_LAWS,
    "StrongAssembly": STRONG_ASSEMBLY_LAWS,
    "NVL": NVL_LAWS,
    "AVL": AVL_LAWS,
    "CIL": CIL_LAWS,
}


def _suite_needs_inverse(laws) -> bool:
    return any(l.needs_inverse for l in laws)


def _index(m: PreMeadow, exhaustive: bool):
    """The index the compiled scans of m read.

    Only an exhaustive check of a finite carrier with a certified inverse
    reads the ``CarrierIndex``, tabulated up front; a sample reads few of
    its cells, and an uncertified inverse must raise at the first tuple
    that meets it, so any other check reads the meadow's ``lazy_index``.
    """
    if exhaustive and m.is_finite() and not (isinstance(m, Meadow) and m.status != "verified"):
        return m.freeze_tables()
    return m.lazy_index


_COMPILED: dict = {}  # id(law) -> (law, _compile(law)); holding the law keeps its id unique


def _compiled(l: Law):
    """``_compile(l)``, compiled once per law object (looked up by identity,
    so no call hashes the law's terms)."""
    got = _COMPILED.get(id(l))
    if got is None:
        got = _COMPILED[id(l)] = (l, _compile(l))
    return got[1]


def _compile(l: Law):
    """(make_scan, tables read, closed terms read) for the law.

    ``make_scan(**tables, power=..., c0=..., ...)`` returns a scan whose
    condition is the law inlined as table lookups: a tuple passes when a
    premise is unmet or an alternative holds.  The scan takes an iterable
    of variable tuples (in ``Law.variables`` order) and returns (tuples
    checked, first failing tuple or None).  The tables are a
    ``CarrierIndex`` or a ``LazyIndex`` (``_index``); premises, then
    alternatives, short-circuit left to right, and each lookup evaluates
    its left operand first, as ``eval_term`` does.
    """
    names = {v: f"v{k}" for k, v in enumerate(l.variables)}
    constants: list[Term] = []
    tables: set[str] = set()

    def lookup(table: str, *args: str) -> str:
        tables.add(table)
        return table + "".join(f"[{a}]" for a in args)

    def expr(t: Term) -> str:
        if isinstance(t, Var):
            return names[t.name]
        if isinstance(t, (Numeral, ErrorConst)):
            if t not in constants:
                constants.append(t)
            return f"c{constants.index(t)}"
        if isinstance(t, Add):
            return lookup("add", expr(t.left), expr(t.right))
        if isinstance(t, Sub):
            return lookup("add", expr(t.left), lookup("neg", expr(t.right)))
        if isinstance(t, Mul):
            return lookup("mul", expr(t.left), expr(t.right))
        if isinstance(t, Div):
            return lookup("mul", expr(t.left), lookup("inverse", expr(t.right)))
        if isinstance(t, Neg):
            return lookup("neg", expr(t.arg))
        if isinstance(t, Inv):
            return lookup("inverse", expr(t.arg))
        if isinstance(t, Pow):
            base, n = expr(t.base), t.exponent
            if n == 0:
                return lookup("add", expr(Numeral(1)), lookup("zero_of", base))
            if n < 0:
                base, n = lookup("inverse", base), -n
            if n == 1:
                return base
            return f"power(lambda p, q: {lookup('mul', 'p', 'q')}, {base}, {n})"
        raise TypeError(f"not a term: {t!r}")

    parts = [f"{expr(lhs)} {'!=' if want else '=='} {expr(rhs)}" for lhs, rhs, want in l.premises]
    parts += [f"{expr(lhs)} == {expr(rhs)}" for lhs, rhs in l.alternatives]
    target = "(" + "".join(f"{v}, " for v in names.values()) + ")"
    params = ", ".join(sorted(tables) + ["power"] + [f"c{k}" for k in range(len(constants))])
    source = (
        f"def make_scan({params}):\n"
        f"    def scan(tuples):\n"
        f"        checked = 0\n"
        f"        for checked, {target} in enumerate(tuples, 1):\n"
        f"            if not ({' or '.join(parts)}):\n"
        f"                return checked, {target}\n"
        f"        return checked, None\n"
        f"    return scan\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<law {l.name}>", "exec"), namespace)
    return namespace["make_scan"], tuple(sorted(tables)), tuple(constants)


def _scan(l: Law, m: PreMeadow, ix):
    make_scan, names, constants = _compiled(l)
    args = {name: getattr(ix, name) for name in names}
    located = ix.constants  # each closed term is evaluated and located once per index
    for k, c in enumerate(constants):
        if c not in located:
            located[c] = ix.key(eval_term(c, m))
        args[f"c{k}"] = located[c]
    scan_keys = make_scan(power=_power, **args)

    def scan(tuples):
        checked, witness = scan_keys(tuples)
        return checked, None if witness is None else tuple(map(ix.element, witness))

    return scan


def _choices(rng, pool, count: int):
    """``count`` draws of ``rng.choice(pool)``, made as it makes them, one at a
    time: ``rng.getrandbits`` until the number falls in the pool (which has
    at least two elements wherever this samples)."""
    n, bits, getrandbits = len(pool), len(pool).bit_length(), rng.getrandbits
    for _ in range(count):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        yield pool[r]


def _check_law(l: Law, scan, pool, exhaustive: bool, budget: int, rng) -> LawResult:
    if budget < 1:
        raise InvalidBudget(f"a sample budget must be at least 1 tuple, not {budget}")
    k = len(l.variables)
    if exhaustive or len(pool) ** k <= budget:
        tuples = itertools.product(pool, repeat=k)
    else:
        tuples = zip(*[_choices(rng, pool, budget * k)] * k)
    checked, witness = scan(tuples)
    return LawResult(
        name=l.name,
        status="pass" if witness is None else "fail",
        witnesses=[witness] if witness is not None else [],
        checked=checked,
    )


def check_axioms(
    m: PreMeadow,
    suite: str,
    budget: int = 512,
    seed: int = 0,
    exhaustive: bool | None = None,
) -> AxiomReport:
    """Run one named suite over the carrier.

    Finite carriers default to exhaustive checking while the tuple count
    per law stays within EXHAUSTIVE_TUPLE_LIMIT; pass ``exhaustive=True``
    to force a full scan, or ``False`` to force seeded sampling of
    ``budget`` tuples per law (at least one).  Infinite carriers always
    sample a fixed deterministic pool.  The report says "exhaustive"
    whenever every law ran on all tuples of a finite carrier.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; options: {sorted(SUITES)}")
    laws = SUITES[suite]
    if _suite_needs_inverse(laws) and not isinstance(m, Meadow):
        raise ValueError(f"suite {suite!r} uses the inverse and needs a meadow")

    finite = m.is_finite()
    if exhaustive is None:
        max_arity = max((len(l.variables) for l in laws), default=0)
        exhaustive = finite and len(m.freeze_tables().pool) ** max_arity <= EXHAUSTIVE_TUPLE_LIMIT
    if exhaustive and not finite:
        raise InfiniteCarrier("exhaustive checking needs a finite carrier")

    ix = _index(m, exhaustive)
    pool = ix.pool
    if suite == "AssemblyMul":  # the unit locus: x^-1 lies in x's component
        zero_of, inverse = ix.zero_of, ix.inverse
        pool = [x for x in pool if zero_of[x] == zero_of[inverse[x]]]
    scans = [_scan(l, m, ix) for l in laws]

    rng = None if exhaustive else random.Random(seed)  # an exhaustive check draws nothing
    results = [_check_law(l, scan, pool, exhaustive, budget, rng) for l, scan in zip(laws, scans)]
    complete = exhaustive or (finite and all(len(pool) ** len(l.variables) <= budget for l in laws))
    mode = EXHAUSTIVE if complete else sampled(budget)
    return AxiomReport(suite=suite, mode=mode, laws=results)


# ---------------------------------------------------------------------------
# structural characterizations


def _minimal_above_bottom(m: PreMeadow):
    lat = m.lattice
    return lat.minimal([n for n in lat.nodes if n != lat.bottom])


def _two_node_field(m: PreMeadow) -> bool:
    lat = m.lattice
    return len(lat.nodes) == 2 and rings.is_field(m.dl.ring_at[lat.top])


def check_characterizations(m: Meadow, which: str) -> AxiomReport:
    """Compare a syntactic law with its independently computed lattice shape.

    NVL_struct      : NVL holds  iff  the zero lattice has exactly 2 nodes
    AVL_struct      : AVL holds  implies  minimal non-bottom components are fields
    NVL_AVL_struct  : NVL and AVL  iff  two nodes with a field on top
    CIL_struct      : CIL holds  iff  two nodes with a field on top
    """
    if not m.is_finite():
        raise InfiniteCarrier("characterizations are checked on finite carriers")
    report = AxiomReport(suite=which, mode=EXHAUSTIVE, laws=[])

    def syntactic(name: str) -> bool:
        return check_axioms(m, name, exhaustive=True).ok

    if which == "NVL_struct":
        syn = syntactic("NVL")
        struct = len(m.lattice.nodes) == 2
        ok = syn == struct
    elif which == "AVL_struct":
        syn = syntactic("AVL")
        struct = all(
            rings.is_field(m.dl.ring_at[n]) for n in _minimal_above_bottom(m)
        )
        ok = (not syn) or struct
    elif which == "NVL_AVL_struct":
        syn = syntactic("NVL") and syntactic("AVL")
        struct = _two_node_field(m)
        ok = syn == struct
    elif which == "CIL_struct":
        syn = syntactic("CIL")
        struct = _two_node_field(m)
        ok = syn == struct
    else:
        raise ValueError(f"unknown characterization {which!r}")
    report.laws.append(
        LawResult(
            name=which,
            status="pass" if ok else "fail",
            witnesses=[] if ok else [(f"syntactic={syn}", f"structural={struct}")],
            checked=1,
        )
    )
    return report


def find_counterexample(dl, law_name: str, mode_budget: int = 512, seed: int = 0):
    """First witness violating the law on the structure over ``dl``, or None.

    Accepts invalid directed lattices on purpose: this is the regression
    tool for broken transition tables.  The special law name
    "unique-maximal-J_x" scans invertibility supports instead.
    """
    m = Meadow(dl, status="lazy")
    if law_name == "unique-maximal-J_x":
        for x in m.probe_pool():
            w = m.inverse_witness(x)
            if len(w.maximal) != 1:
                return (x,)
        return None
    for suite in SUITES.values():
        for l in suite:
            if l.name == law_name:
                ix = m.lazy_index
                result = _check_law(l, _scan(l, m, ix), ix.pool, m.is_finite(), mode_budget, random.Random(seed))
                return tuple(result.witnesses[0]) if result.witnesses else None
    raise ValueError(f"unknown law {law_name!r}")
