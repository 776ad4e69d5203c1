"""Equational law suites with exhaustive or seeded-sample checking.

Every law is data: a name plus equation text parsed by the expression
parser, so the tables below are simultaneously the documentation and the
executable definition.  Guarded laws carry premises ("x != a"), and a law
may be a disjunction of equations (separated by '|').  Laws compile to
table lookups on a carrier index: an exhaustive check runs one loop nest
per suite and arity (``_compile``), a sampled one scans law by law.
"""

from __future__ import annotations

import functools
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
    eval_term,
    parse,
)

EXHAUSTIVE_TUPLE_LIMIT = 10_000


@dataclass(frozen=True, eq=False)  # a law hashes by identity, so no lookup of its scan hashes its terms
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
    for v in t:  # a node is the tuple of its fields
        if isinstance(v, Term):
            out |= _variables(v)
    return out


def _uses_inverse(t: Term) -> bool:
    if isinstance(t, (Div, Inv)):
        return True
    if isinstance(t, Pow) and t.exponent < 0:
        return True
    return any(isinstance(v, Term) and _uses_inverse(v) for v in t)


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


@functools.cache  # once per group of law objects
def _compile(laws: tuple[Law, ...], nested: bool):
    """(make_scan, tables read, closed terms read) for laws of one arity k.

    ``make_scan(**tables, element=..., power=..., c0=..., ...)`` returns one
    scan of the laws, each inlined as table lookups on ``v0``, ``v1``, ...
    (its variables in order): a tuple passes when a premise is unmet or an
    alternative holds.  The scan returns the tuples checked, then each law's
    first failing tuple or None, once every law has failed.  Flat, it counts
    the tuples of an iterable and makes each lookup as ``eval_term`` does:
    premises, then alternatives, short-circuit left to right, left operand
    first.  Nested, it runs k loops over the pool in ``itertools.product``
    order and makes each lookup once, in the loop of the deepest variable it
    reads, so it reads cells a short-circuit skips: only on a ``CarrierIndex``.
    """
    k = len(laws[0].variables)
    constants: list[Term] = []
    tables: set[str] = set()
    target = "(" + "".join(f"v{j}, " for j in range(k)) + ")"
    if nested:  # block d: the loop of v{d}, after the lookups that read no later variable
        blocks = [[f"for v{d} in source:"] for d in range(k)]
    else:
        blocks = [[f"for checked, {target} in enumerate(source, 1):"]]
    depth = {f"v{j}": j + 1 for j in range(k)}  # code -> 1 + the index of the deepest variable it reads
    hoisted: dict[str, str] = {}  # lookup code -> the local computing it

    def lookup(table: str, *args: str) -> str:
        tables.add(table)
        code = table
        for arg in args:
            d = max(depth.get(code, 0), depth.get(arg, 0))  # a table or closed term reads no variable
            code = f"{code}[{arg}]"
            if nested and d < k and code not in hoisted:
                hoisted[code] = f"t{len(hoisted)}"
                blocks[d].insert(-1, f"{hoisted[code]} = {code}")
            code = hoisted.get(code, code)
            depth[code] = d
        return code

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
            tables.add("mul")
            code = f"power(lambda p, q: mul[p][q], {base}, {n})"
            depth[code] = depth.get(base, 0)
            return code
        raise TypeError(f"not a term: {t!r}")

    ws = [f"w{i}" for i in range(len(laws))]  # w{i}: law i's first failing tuple, None while it holds
    witnesses = ", ".join(ws)
    checks: list[str] = []
    for i, l in enumerate(laws):
        names = {v: f"v{j}" for j, v in enumerate(l.variables)}
        parts = [f"{expr(lhs)} {'!=' if want else '=='} {expr(rhs)}" for lhs, rhs, want in l.premises]
        parts += [f"{expr(lhs)} == {expr(rhs)}" for lhs, rhs in l.alternatives]
        checks += [
            f"if w{i} is None and not ({' or '.join(parts)}):",
            f"    w{i} = tuple(map(element, {target}))",
            f"    if None not in ({witnesses},):",
            f"        return checked, {witnesses}",
        ]
    lines = ["def scan(source):", "    checked = 0", f"    {' = '.join(ws)} = None"]
    for d, block in enumerate(blocks + [checks], 1):
        lines += ["    " * d + line for line in block]
    lines.append(f"    return checked, {witnesses}")
    params = ", ".join(sorted(tables) + ["element", "power"] + [f"c{k}" for k in range(len(constants))])
    source = f"def make_scan({params}):\n" + "".join(f"    {line}\n" for line in lines) + "    return scan\n"
    namespace: dict = {}
    exec(compile(source, f"<laws {', '.join(l.name for l in laws)}>", "exec"), namespace)
    return namespace["make_scan"], tuple(sorted(tables)), tuple(constants)


def _scan(laws: tuple[Law, ...], ix, nested: bool = False):
    make_scan, names, constants = _compile(laws, nested)
    args = {name: getattr(ix, name) for name in names}
    # each closed term is evaluated and located once per index, on the index's
    # meadow: a carrier index's is a copy without caches, so what the evaluation
    # leaves for the cyclic collector holds neither the meadow nor its tables
    located = ix.constants
    for k, c in enumerate(constants):
        if c not in located:
            located[c] = ix.key(eval_term(c, ix.meadow))
        args[f"c{k}"] = located[c]
    return make_scan(element=ix.element, power=rings._power, **args)


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


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise InvalidBudget(f"a sample budget must be at least 1 tuple, not {budget}")


def _result(l: Law, checked: int, witness) -> LawResult:
    return LawResult(
        name=l.name,
        status="pass" if witness is None else "fail",
        witnesses=[witness] if witness is not None else [],
        checked=checked,
    )


def _check_law(l: Law, scan, pool, exhaustive: bool, budget: int, rng) -> LawResult:
    _check_budget(budget)
    k = len(l.variables)
    if exhaustive or len(pool) ** k <= budget:
        tuples = itertools.product(pool, repeat=k)
    else:
        tuples = zip(*[_choices(rng, pool, budget * k)] * k)
    return _result(l, *scan(tuples))


def _check_nested(laws: tuple[Law, ...], ix, pool, budget: int) -> list[LawResult]:
    """Each law's result, in suite order, from one nested scan per arity; a
    failing law's count is its witness's rank in product order, plus 1."""
    groups: dict[int, list[Law]] = {}  # arity -> its laws, in suite order
    for l in laws:
        groups.setdefault(len(l.variables), []).append(l)
    scans = {k: _scan(tuple(group), ix, nested=True) for k, group in groups.items()}
    _check_budget(budget)
    results = {}
    for k, group in groups.items():
        _, *found = scans[k](pool)
        for l, witness in zip(group, found):
            rank = 0
            for x in witness or ():
                rank = rank * len(pool) + pool.index(ix.key(x))
            results[l] = _result(l, len(pool) ** k if witness is None else rank + 1, witness)
    return [results[l] for l in laws]


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

    # only an exhaustive check with a certified inverse reads the CarrierIndex, in nested
    # scans; a sample reads few of its cells, and an uncertified inverse must raise at
    # the first tuple that meets it, so any other check reads the lazy index law by law
    nested = exhaustive and not (isinstance(m, Meadow) and m.status != "verified")
    ix = m.freeze_tables() if nested else m.lazy_index
    pool = ix.pool
    if suite == "AssemblyMul":  # the unit locus: x^-1 lies in x's component
        zero_of, inverse = ix.zero_of, ix.inverse
        pool = [x for x in pool if zero_of[x] == zero_of[inverse[x]]]
    if nested:
        results = _check_nested(laws, ix, pool, budget)
    else:
        scans = [_scan((l,), ix) for l in laws]
        rng = None if exhaustive else random.Random(seed)  # an exhaustive check draws nothing
        results = [_check_law(l, scan, pool, exhaustive, budget, rng) for l, scan in zip(laws, scans)]
    complete = exhaustive or (finite and all(len(pool) ** len(l.variables) <= budget for l in laws))
    mode = EXHAUSTIVE if complete else sampled(budget)
    return AxiomReport(suite=suite, mode=mode, laws=results, seed=None if complete else seed)


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
                result = _check_law(l, _scan((l,), ix), ix.pool, m.is_finite(), mode_budget, random.Random(seed))
                return tuple(result.witnesses[0]) if result.witnesses else None
    raise ValueError(f"unknown law {law_name!r}")
