"""parse and eval_term against the implementations they replaced.

``ReferenceParser`` is the recursive-descent parser that ``parse`` replaced,
and ``reference_eval_term`` the element-by-element evaluator that
``eval_term`` replaced, with the meadow operations it called: every
intermediate is a ``MeadowElement``, every argument is checked for
membership, and every push goes through ``rings.hom_apply``.

- Term trees built by hypothesis, rendered with random whitespace, must
  parse to the same tree.
- Random strings over the token alphabet, with non-ASCII letters, digits
  and spaces, must parse alike or fail alike: same exception class,
  message and position.  The one allowed difference is where the
  reference ended in a ``ValueError`` from ``int`` (a digit that is not
  decimal, or a literal past Python's int/str digit limit): ``parse``
  raises a ``TermSyntaxError`` there.
- ``eval_term`` must give the same element or raise the same error on
  every corpus meadow and shipped file, on ambiguous lattices built lazily
  (``AmbiguousInverse``) and on lattices with incomplete tables
  (``TableIncomplete``).  Bindings are members: a foreign binding now fails
  when it is read (``test_a_foreign_binding_fails_when_read``).
"""

from __future__ import annotations

import itertools
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from meadows import rings
from meadows.errors import (
    AmbiguousInverse,
    ForeignElement,
    NotALattice,
    TableIncomplete,
    TermSyntaxError,
    UnboundVariable,
)
from meadows.latfile import load_lattice_file
from meadows.lattice import DirectedLattice, Lattice
from meadows.meadow import Meadow, MeadowElement, build_meadow
from meadows.morphisms import adjoin_error
from meadows.terms import (
    MAX_DEPTH,
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

import corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# the reference parser


class ReferenceParser:
    """Recursive descent; each rule returns (term, depth of its tree)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nesting = 0

    def error(self, message: str):
        raise TermSyntaxError(message, self.pos)

    def bounded(self, depth: int) -> int:
        if depth > MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH}")
        return depth

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expr(self) -> tuple[Term, int]:
        node, depth = self.term()
        while True:
            if self.take("+"):
                cls = Add
            elif self.take("-"):
                cls = Sub
            else:
                return node, depth
            right, right_depth = self.term()
            node, depth = cls(node, right), self.bounded(max(depth, right_depth) + 1)

    def term(self) -> tuple[Term, int]:
        node, depth = self.factor()
        while True:
            if self.take("*"):
                cls = Mul
            elif self.take("/"):
                cls = Div
            else:
                return node, depth
            right, right_depth = self.factor()
            node, depth = cls(node, right), self.bounded(max(depth, right_depth) + 1)

    def factor(self) -> tuple[Term, int]:
        negations = 0
        while self.take("-"):
            negations += 1
        node, depth = self.atom()
        if self.take("^"):
            node, depth = Pow(node, self.signed_int()), depth + 1
        for _ in range(negations):
            node = Neg(node)
        return node, self.bounded(depth + negations)

    def signed_int(self) -> int:
        self.skip_ws()
        sign = -1 if self.take("-") else 1
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer exponent")
        return sign * int(self.text[start : self.pos])

    def atom(self) -> tuple[Term, int]:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            self.nesting = self.bounded(self.nesting + 1)
            node = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            self.nesting -= 1
            return node
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return Numeral(int(self.text[start : self.pos])), 1
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            return (ErrorConst() if name == "a" else Var(name)), 1
        self.error("expected a number, variable, 'a' or '('")


def reference_parse(text: str) -> Term:
    p = ReferenceParser(text)
    node, _depth = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return node


def parsed(parser, text):
    """("ok", tree), or (exception class, message, position) for a clean failure."""
    try:
        return "ok", parser(text)
    except TermSyntaxError as exc:
        return TermSyntaxError, str(exc), exc.position


def assert_parses_alike(text: str) -> None:
    try:
        want = parsed(reference_parse, text)
    except ValueError:  # int() refused the reference's digit run
        with pytest.raises(TermSyntaxError):
            parse(text)
        return
    assert parsed(parse, text) == want, text


# ---------------------------------------------------------------------------
# parsing


NAMES = ["x", "y", "a1", "_t", "é", "xé2", "ж", "x²", "五"]
SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n", "　", " "])


def trees():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=10**30).map(Numeral),
        st.just(ErrorConst()),
        st.sampled_from(NAMES).map(Var),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            *(st.tuples(inner, inner).map(lambda p, cls=cls: cls(*p)) for cls in (Add, Sub, Mul, Div)),
            inner.map(Neg),
            st.tuples(inner, st.integers(min_value=-12, max_value=12)).map(lambda p: Pow(*p)),
        ),
        max_leaves=16,
    )


def render(t: Term, space) -> list[str]:
    """Tokens of a fully parenthesized rendering, with drawn whitespace between."""
    if isinstance(t, Numeral):
        return [str(t.n)]
    if isinstance(t, ErrorConst):
        return ["a"]
    if isinstance(t, Var):
        return [t.name]
    if isinstance(t, Neg):
        return ["(", "-", space(), *render(t.arg, space), ")"]
    if isinstance(t, Pow):
        sign = ["-", space()] if t.exponent < 0 else []
        return ["(", *render(t.base, space), ")", space(), "^", space(), *sign, str(abs(t.exponent))]
    symbol = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(t)]
    return ["(", space(), *render(t.left, space), space(), symbol, space(), *render(t.right, space), space(), ")"]


@settings(deadline=None)
@given(trees(), st.data())
def test_rendered_trees_parse_to_the_same_tree(t, data):
    text = "".join(render(t, lambda: data.draw(SPACE)))
    assert parse(text) == reference_parse(text) == t


ALPHABET = "0123456789 ()+-*/^_axyé五²½٣\t　€"
CHUNKS = ["(", ")", "-", "1", "x", "+", "*", "/", "^", "^-2", "^2", " ", "1+", "x*", "(x", "2)", "-(", "²", "٣"]


@settings(deadline=None, max_examples=500)
@given(st.text(alphabet=ALPHABET, max_size=30))
def test_random_strings_parse_or_fail_alike(text):
    assert_parses_alike(text)


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(CHUNKS), max_size=260).map("".join))
def test_long_strings_parse_or_fail_alike(text):
    # long enough to cross MAX_DEPTH in parentheses, negations and operator chains
    assert_parses_alike(text)


DEPTH_CASES = [
    "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1),
    "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH,
    "-" * MAX_DEPTH + "1",
    "-" * (MAX_DEPTH - 1) + "1^2",
    "-" * (MAX_DEPTH - 2) + "1^2 * 3",
    "1" + " + 1" * MAX_DEPTH,
    "1" + " + 1" * (MAX_DEPTH - 1) + " + x^2",
    "x" + " * x" * MAX_DEPTH,
    "x" + " * x^2" * (MAX_DEPTH - 1),
    "x" + " * x^2 " * MAX_DEPTH,
    "(" * 50 + "-" * 60 + "1" + ")" * 50,
    "(" * 99 + "1 + (2" + ")" * 100,
    "1 + " * 99 + "(2)^3",
]


@pytest.mark.parametrize("text", DEPTH_CASES, ids=range(len(DEPTH_CASES)))
def test_depth_bounds_fail_alike(text):
    assert_parses_alike(text)


@pytest.mark.parametrize(
    "text, position",
    [("²", 0), ("2^²", 2), ("1 + 1²", 5), ("x^ - ²", 5), ("9" * 5000, 0), ("x^-" + "9" * 5000, 3)],
)
def test_what_int_refused_is_a_syntax_error_at_the_token(text, position):
    with pytest.raises(TermSyntaxError) as exc:
        parse(text)
    assert exc.value.position == position


def test_decimal_digits_of_any_script_are_numerals():
    assert parse("٣ + x²") == reference_parse("٣ + x²") == Add(Numeral(3), Var("x²"))
    assert parse("　x^-٤٢") == Pow(Var("x"), -42)


# ---------------------------------------------------------------------------
# the reference evaluator


def _member(m, x):
    if not (
        isinstance(x, MeadowElement) and x.node in m.lattice.nodes and x.value.ring == m.dl.ring_at[x.node]
    ):
        raise ForeignElement(f"{x} does not belong to this structure")


def _push(m, x, node):
    return rings.hom_apply(m.dl.transition(x.node, node), x.value)


def _binary(op):
    def apply(m, x, y):
        _member(m, x), _member(m, y)
        k = m.lattice.meet(x.node, y.node)
        return MeadowElement(k, op(_push(m, x, k), _push(m, y, k)))

    return apply


ref_add, ref_mul = _binary(rings.add), _binary(rings.mul)


def ref_neg(m, x):
    _member(m, x)
    return MeadowElement(x.node, rings.neg(x.value))


def ref_inverse(m, x):
    _member(m, x)
    support = frozenset(j for j in m.lattice.down_set(x.node) if rings.is_unit(_push(m, x, j)))
    maximal = m.lattice.maximal(support)
    if len(maximal) != 1:
        raise AmbiguousInverse(x, maximal)
    j = next(iter(maximal))
    return MeadowElement(j, rings.unit_inverse(_push(m, x, j)))


def ref_power(m, x, n):
    result = x
    for _ in range(n - 1):
        result = ref_mul(m, result, x)
    return result


def reference_eval_term(t, m, env=None):
    env = env or {}
    ev = lambda s: reference_eval_term(s, m, env)  # noqa: E731
    if isinstance(t, Numeral):
        return m.numeral(t.n)
    if isinstance(t, ErrorConst):
        return m.a
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundVariable(f"variable {t.name!r} has no binding")
        return env[t.name]
    if isinstance(t, Add):
        return ref_add(m, ev(t.left), ev(t.right))
    if isinstance(t, Sub):
        return ref_add(m, ev(t.left), ref_neg(m, ev(t.right)))
    if isinstance(t, Mul):
        return ref_mul(m, ev(t.left), ev(t.right))
    if isinstance(t, Div):
        return ref_mul(m, ev(t.left), ref_inverse(m, ev(t.right)))
    if isinstance(t, Neg):
        return ref_neg(m, ev(t.arg))
    if isinstance(t, Inv):
        return ref_inverse(m, ev(t.arg))
    if isinstance(t, Pow):
        base = ev(t.base)
        if t.exponent == 0:
            _member(m, base)
            zero = MeadowElement(base.node, rings.zero_value(base.value.ring))
            return ref_add(m, m.one, zero)
        if t.exponent < 0:
            return ref_power(m, ref_inverse(m, base), -t.exponent)
        return ref_power(m, base, t.exponent)
    raise TypeError(f"not a term: {t!r}")


def evaluated(evaluate, t, m, env):
    """The element, or (exception class, message) for a failure."""
    try:
        return evaluate(t, m, env)
    except (AmbiguousInverse, TableIncomplete, UnboundVariable) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# evaluation


def incomplete_tables() -> list[tuple[str, Meadow]]:
    """Lattices whose edge tables miss inputs, built without validation."""
    z_table = corpus.chain(rings.Z, corpus.incomplete_table(rings.Z, (2, -2)), rings.Z)
    return [("z_table_missing_2", Meadow(z_table, "lazy")), ("z4_diamond_missing_3", Meadow(corpus.z4_diamond_missing_3(), "lazy"))]


def _meadows() -> list[tuple[str, Meadow]]:
    out = [(f"corpus:{name}", m) for name, m in corpus.finite_meadows()]
    out.append(("corpus:chain_z_q", build_meadow(corpus.chain_z_q())))
    frozen = adjoin_error(rings.Product((rings.Mod(2), rings.Mod(3))))
    frozen.freeze_tables()  # building the index tables leaves the element path as it was
    out.append(("frozen:z2xz3", frozen))
    for path in sorted((ROOT / "lattices").glob("*.json")):
        if "ideal" not in path.stem:
            mode = "lazy" if "ambiguous" in path.stem else "verify"
            out.append((f"file:{path.stem}", build_meadow(load_lattice_file(path), mode=mode)))
    for name in ("two_z3_ambiguous", "two_q_ambiguous"):
        out.append((f"corpus:{name}", build_meadow(getattr(corpus, name)(), mode="lazy")))
    out += [(f"table:{name}", m) for name, m in incomplete_tables()]
    return out


MEADOWS = _meadows()


def eval_trees():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=12).map(Numeral),
        st.just(ErrorConst()),
        st.sampled_from([Var("x"), Var("y")]),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            *(st.tuples(inner, inner).map(lambda p, cls=cls: cls(*p)) for cls in (Add, Sub, Mul, Div)),
            inner.map(Neg),
            inner.map(Inv),
            st.tuples(inner, st.integers(min_value=-4, max_value=5)).map(lambda p: Pow(*p)),
        ),
        max_leaves=10,
    )


@pytest.mark.parametrize("name, m", MEADOWS, ids=[name for name, _ in MEADOWS])
@settings(deadline=None, max_examples=60)
@given(t=eval_trees(), data=st.data())
def test_eval_term_matches_the_reference(name, m, t, data):
    pool = m.probe_pool()
    env = {"x": data.draw(st.sampled_from(pool)), "y": data.draw(st.sampled_from(pool))}
    assert evaluated(eval_term, t, m, env) == evaluated(reference_eval_term, t, m, env)


def test_the_error_paths_are_reached():
    """The corpus above does reach AmbiguousInverse and TableIncomplete."""
    two_q, table = dict(MEADOWS)["file:two_q_ambiguous"], dict(MEADOWS)["table:z_table_missing_2"]
    for m, env, error in (
        (two_q, {"x": two_q.element("z", 2)}, AmbiguousInverse),
        (table, {"x": table.element("n0", 2)}, TableIncomplete),
    ):
        for text in ("1/x", "x + 1/2", "x^-3"):
            got = evaluated(eval_term, parse(text), m, env)
            assert got == evaluated(reference_eval_term, parse(text), m, env)
            assert got[0] is error, (text, got)


def test_every_small_term_on_the_small_carriers():
    """Every term of up to two operators over {0, 1, 2, x} on the finite corpus."""
    leaves = [Numeral(0), Numeral(1), Numeral(2), Var("x"), ErrorConst()]
    ones = [cls(l) for cls in (Neg, Inv) for l in leaves] + [Pow(l, e) for l in leaves for e in (-2, 0, 3)]
    terms = leaves + ones
    terms += [cls(l, r) for cls in (Add, Sub, Mul, Div) for l, r in itertools.product(leaves, terms)]
    for name, m in corpus.finite_meadows()[:6]:
        for x in m.elements():
            env = {"x": x}
            for t in terms:
                assert evaluated(eval_term, t, m, env) == evaluated(reference_eval_term, t, m, env), (name, t)


def test_a_foreign_binding_fails_when_read():
    """The one visible change: the reference returned a foreign binding read alone."""
    m = adjoin_error(rings.Mod(6))
    foreign = adjoin_error(rings.Mod(5)).one
    assert reference_eval_term(Var("x"), m, {"x": foreign}) == foreign
    for t in (Var("x"), Add(Var("x"), Var("y")), Mul(Numeral(0), Var("x"))):
        with pytest.raises(ForeignElement):
            eval_term(t, m, {"x": foreign})


def test_powers_on_a_node_of_a_cycle_raise_as_the_first_square_does():
    # unvalidated: t and u lie below each other, so t meets itself nowhere
    z2 = rings.Mod(2)
    cycle = Lattice(["t", "u", "a"], [("a", "t"), ("a", "u"), ("t", "u"), ("u", "t")])
    edges = {("t", "u"): rings.identity_hom(z2), ("u", "t"): rings.identity_hom(z2)}
    m = Meadow(DirectedLattice(cycle, {"t": z2, "u": z2, "a": rings.ZERO}, edges), "lazy")
    env = {"x": m.element("t", 1)}
    for text in ("x^2", "x^5", "x*x"):
        for evaluate in (eval_term, reference_eval_term):
            with pytest.raises(NotALattice, match="nodes 't' and 't' have no meet"):
                evaluate(parse(text), m, env)
    assert eval_term(parse("x^1"), m, env) == reference_eval_term(parse("x^1"), m, env) == env["x"]
