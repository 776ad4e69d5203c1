"""Expression language over a meadow: parser, evaluator, formatting.

Grammar (whitespace insignificant, left associative, '^' binds tightest):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' signed-int)?
    atom   := integer | 'a' | identifier | '(' expr ')'

Integers are runs of decimal digits (any script's); an identifier is a run
of letters, digits and '_' that starts with a letter or '_'.  A literal
with more digits than Python converts is a ``TermSyntaxError``.
The literal 'a' is the error constant and is never a variable.  Numerals
enter at the top node.  Every well-formed closed term evaluates: division
never fails, it lands on 'a' instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import rings
from .errors import ForeignElement, ReservedIdentifier, TermSyntaxError, UnboundVariable
from .meadow import Meadow, MeadowElement, PreMeadow


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Numeral(Term):
    n: int


@dataclass(frozen=True)
class ErrorConst(Term):
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Sub(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Div(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class Inv(Term):
    arg: Term


@dataclass(frozen=True)
class Pow(Term):
    base: Term
    exponent: int


# ---------------------------------------------------------------------------
# parsing


# Deepest term tree and parenthesis nesting the parser accepts.  eval_term,
# format_term and the law compiler recurse one frame per tree level, so this
# keeps them well inside Python's default recursion limit of 1000.
MAX_DEPTH = 100

# A token is a run of decimal digits, a run of word characters (an
# identifier when it starts with a letter or '_'), or any other single
# non-space character; whitespace only separates tokens.
_TOKEN = re.compile(r"\d+|\w+|\S")
_ADDITIVE = {"+": Add, "-": Sub}
_MULTIPLICATIVE = {"*": Mul, "/": Div}


class _Fail(Exception):
    """A syntax error at token ``index``: at its start, or its end when ``after``."""

    def __init__(self, message: str, index: int, after: bool = False):
        self.message, self.index, self.after = message, index, after


def _position(text: str, index: int, after: bool) -> int:
    """Offset of the start (or end) of token ``index``; past the last, the text's end."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == index:
            return m.end() if after else m.start()
    return len(text)


def _integer(tok: str, index: int) -> int:
    try:
        return int(tok)
    except ValueError:  # more digits than Python converts (sys.get_int_max_str_digits)
        raise _Fail(f"integer literal of {len(tok)} digits is too long", index) from None


def _too_deep(index: int, after: bool = False) -> _Fail:
    return _Fail(f"expression nested deeper than {MAX_DEPTH}", index, after)


def _parse_tokens(toks: list) -> Term:
    """Operator precedence over the token list, one loop per factor.

    ``expr``/``term`` hold the finished part of the sum and of the product
    at the current parenthesis level, each as (pending operator class, left
    operand, its depth) or None; an open parenthesis saves them (and the
    minus signs before it) on ``stack``.  Depth checks and errors come in
    the order of the grammar's left-to-right reading.
    """
    n = len(toks)
    toks = toks + [""]  # the end of input reads as ""
    i = 0
    stack: list = []
    expr = term = None
    while True:
        negations = 0
        while toks[i] == "-":
            negations += 1
            i += 1
        tok = toks[i]
        if tok == "(":
            if len(stack) >= MAX_DEPTH:
                raise _too_deep(i, after=True)
            stack.append((expr, term, negations))
            expr = term = None
            i += 1
            continue
        c = tok[:1]
        if c.isdecimal():
            node, depth = Numeral(_integer(tok, i)), 1
        elif c.isalpha() or c == "_":
            node, depth = (ErrorConst() if tok == "a" else Var(tok)), 1
        else:
            raise _Fail("expected a number, variable, 'a' or '('", i)
        i += 1
        while True:  # the factor's atom is done: close the factor, then the levels it ends
            at, after = i, False  # where the factor ends: the next token's start
            if toks[i] == "^":
                i, sign = i + 1, 1
                if toks[i] == "-":
                    i, sign = i + 1, -1
                if not toks[i][:1].isdecimal():
                    raise _Fail("expected an integer exponent", i)
                node, depth = Pow(node, sign * _integer(toks[i], i)), depth + 1
                at, after = i, True  # or right after the exponent's digits
                i += 1
            for _ in range(negations):
                node = Neg(node)
            depth += negations
            if term is not None:
                cls, left, left_depth = term
                node, depth = cls(left, node), max(left_depth, depth) + 1
            # one check for the factor and the product: the product is the deeper
            if depth > MAX_DEPTH:
                raise _too_deep(at, after)
            tok = toks[i]
            cls = _MULTIPLICATIVE.get(tok)
            if cls is not None:
                term = cls, node, depth
                i += 1
                break
            term = None
            if expr is not None:
                cls, left, left_depth = expr
                node, depth = cls(left, node), max(left_depth, depth) + 1
                if depth > MAX_DEPTH:
                    raise _too_deep(i)
            cls = _ADDITIVE.get(tok)
            if cls is not None:
                expr = cls, node, depth
                i += 1
                break
            expr = None
            if not stack:
                if i < n:
                    raise _Fail("unexpected trailing input", i)
                return node
            if tok != ")":
                raise _Fail("expected ')'", i)
            i += 1
            expr, term, negations = stack.pop()  # the parenthesized expr is an atom


def parse(text: str) -> Term:
    toks = _TOKEN.findall(text)
    try:
        return _parse_tokens(toks)
    except _Fail as fail:
        raise TermSyntaxError(fail.message, _position(text, fail.index, fail.after)) from None


# ---------------------------------------------------------------------------
# evaluation


def bind_env(meadow: PreMeadow, bindings: dict) -> dict[str, MeadowElement]:
    """Validated variable environment over the given structure."""
    env = {}
    for name, elem in bindings.items():
        if name == "a":
            raise ReservedIdentifier("'a' is the error constant and cannot be bound")
        if not meadow.contains(elem):
            raise ForeignElement(f"binding {name}={elem} is not in the structure")
        env[name] = elem
    return env


def eval_term(t: Term, meadow: PreMeadow, env: dict | None = None) -> MeadowElement:
    """Total evaluation; unbound variables are the only failure mode.

    The tree is walked on the meadow's (node, payload) pairs; only the
    result, and each operand of an inversion (``Meadow.inverse``), becomes
    a ``MeadowElement``.  A bound variable is checked for membership the
    first time it is read.
    """
    env = env or {}
    add, mul, neg = meadow._add, meadow._mul, meadow._neg
    read: dict = {}

    def inverse(pair):
        # through the public inverse: one wrap, and one Meadow.inverse call, per inversion
        y = meadow.inverse(meadow._wrap(pair))
        return y.node, y.value.payload

    def walk(t):
        cls = t.__class__
        if cls is Add:
            return add(walk(t.left), walk(t.right))
        if cls is Mul:
            return mul(walk(t.left), walk(t.right))
        if cls is Var:
            pair = read.get(t.name)
            if pair is None:
                if t.name not in env:
                    raise UnboundVariable(f"variable {t.name!r} has no binding")
                pair = read[t.name] = meadow._pair(env[t.name])
            return pair
        if cls is Numeral:
            return meadow._numeral(t.n)
        if cls is Sub:
            return add(walk(t.left), neg(walk(t.right)))
        if cls is Div:
            return mul(walk(t.left), inverse(walk(t.right)))
        if cls is Neg:
            return neg(walk(t.arg))
        if cls is Inv:
            return inverse(walk(t.arg))
        if cls is ErrorConst:
            return meadow.lattice.bottom, rings.TOK
        if cls is Pow:
            base, n = walk(t.base), t.exponent
            if n == 0:
                # x^0 keeps the component information: 1 + 0*x
                return add(meadow._numeral(1), meadow._zero_of(base))
            if n < 0:
                base, n = inverse(base), -n
            if n == 1:
                return base
            # every factor lies at the base's node k: multiply in its ring, after
            # the meet the first square asks for (k, or NotALattice on a cycle)
            k, p = base
            meadow.lattice.meet(k, k)
            return k, _power(meadow.dl.ring_at[k].mul, p, n)
        raise TypeError(f"not a term: {t!r}")

    return meadow._wrap(walk(t))


def _power(mul, x, n: int):
    """x multiplied by itself to n >= 1 factors, by square-and-multiply;
    ``mul`` multiplies two elements, or two payloads of one ring.

    Equal to the left-to-right product because multiplication is
    associative and commutative (PM5, PM6).
    """
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


# ---------------------------------------------------------------------------
# formatting


def format_element(x: MeadowElement) -> str:
    """Canonical "value @ node" rendering; the error element prints as "a"."""
    return str(x)


def format_term(t: Term) -> str:
    """Parseable text for a term; reparsing yields the same tree."""
    if isinstance(t, Numeral):
        return str(t.n)
    if isinstance(t, ErrorConst):
        return "a"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Add):
        return f"({format_term(t.left)} + {format_term(t.right)})"
    if isinstance(t, Sub):
        return f"({format_term(t.left)} - {format_term(t.right)})"
    if isinstance(t, Mul):
        return f"({format_term(t.left)} * {format_term(t.right)})"
    if isinstance(t, Div):
        return f"({format_term(t.left)} / {format_term(t.right)})"
    if isinstance(t, Neg):
        return f"(-{format_term(t.arg)})"
    if isinstance(t, Inv):
        return f"({format_term(t.arg)})^-1"
    if isinstance(t, Pow):
        return f"({format_term(t.base)})^{t.exponent}"
    raise TypeError(f"not a term: {t!r}")
