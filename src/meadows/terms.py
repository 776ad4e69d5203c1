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
enter at the top node.  Every well-formed closed term evaluates, with one
exception: a power whose value would be past what Python's int/str digit
limit lets print is refused with ``ValueTooLarge`` before it is computed.
Division never fails: it lands on 'a' instead.

Term nodes are tuples of their fields (``Term``); the evaluator unpacks
them, and each power is taken by the ring at its base's node
(``RingDescriptor.power``).
"""

from __future__ import annotations

import re
from collections import namedtuple

from . import rings
from .errors import ForeignElement, ReservedIdentifier, TermSyntaxError, UnboundVariable, ValueTooLarge
from .meadow import Meadow, MeadowElement, PreMeadow


class Term(tuple):
    """Base of the term nodes: each is an immutable tuple of its ``_fields``,
    read by name or by unpacking, and equal only to a node of its own class
    with equal fields.  It hashes as that tuple, so nodes of two classes
    with equal fields collide but never compare equal."""

    __slots__ = ()

    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):  # tuple's own would compare the fields alone
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


class Numeral(Term, namedtuple("Numeral", "n")):
    __slots__ = ()


class ErrorConst(Term, namedtuple("ErrorConst", "")):
    __slots__ = ()


class Var(Term, namedtuple("Var", "name")):
    __slots__ = ()


class Add(Term, namedtuple("Add", "left right")):
    __slots__ = ()


class Sub(Term, namedtuple("Sub", "left right")):
    __slots__ = ()


class Mul(Term, namedtuple("Mul", "left right")):
    __slots__ = ()


class Div(Term, namedtuple("Div", "left right")):
    __slots__ = ()


class Neg(Term, namedtuple("Neg", "arg")):
    __slots__ = ()


class Inv(Term, namedtuple("Inv", "arg")):
    __slots__ = ()


class Pow(Term, namedtuple("Pow", "base exponent")):
    __slots__ = ()


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

# the parser builds nodes as tuple.__new__(cls, fields), a third of the cost
# of a call through namedtuple's keyword-taking constructor
_new = tuple.__new__


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
            node, depth = _new(Numeral, (_integer(tok, i),)), 1
        elif c.isalpha() or c == "_":
            node, depth = (_new(ErrorConst, ()) if tok == "a" else _new(Var, (tok,))), 1
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
                node, depth = _new(Pow, (node, sign * _integer(toks[i], i))), depth + 1
                at, after = i, True  # or right after the exponent's digits
                i += 1
            for _ in range(negations):
                node = _new(Neg, (node,))
            depth += negations
            if term is not None:
                cls, left, left_depth = term
                node, depth = _new(cls, (left, node)), max(left_depth, depth) + 1
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
                node, depth = _new(cls, (left, node)), max(left_depth, depth) + 1
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

_ONE = Numeral(1)


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
    """Total evaluation: an unbound variable, and a power past what can be
    printed (``ValueTooLarge``, naming the term), are the only failure modes.

    The tree is walked on the meadow's (node, payload) pairs; only the
    result, and each operand of an inversion (``Meadow.inverse``), becomes
    a ``MeadowElement``.  A bound variable is checked for membership the
    first time it is read; the top node, where numerals enter, is looked up
    at the first numeral.
    """
    env = env or {}
    add, mul, neg = meadow._add, meadow._mul, meadow._neg
    read: dict = {}
    top = None  # (the top node, its ring's from_int) once a numeral is read

    def inverse(pair):
        # through the public inverse: one wrap, and one Meadow.inverse call, per inversion
        y = meadow.inverse(meadow._wrap(pair))
        return y.node, y.value.payload

    def walk(t):
        nonlocal top
        cls = t.__class__
        if cls is Add:
            left, right = t
            return add(walk(left), walk(right))
        if cls is Mul:
            left, right = t
            return mul(walk(left), walk(right))
        if cls is Var:
            (name,) = t
            pair = read.get(name)
            if pair is None:
                if name not in env:
                    raise UnboundVariable(f"variable {name!r} has no binding")
                pair = read[name] = meadow._pair(env[name])
            return pair
        if cls is Numeral:
            if top is None:
                k = meadow.lattice.top
                top = k, meadow.dl.ring_at[k].from_int
            return top[0], top[1](t[0])
        if cls is Sub:
            left, right = t
            return add(walk(left), neg(walk(right)))
        if cls is Div:
            left, right = t
            return mul(walk(left), inverse(walk(right)))
        if cls is Neg:
            return neg(walk(t[0]))
        if cls is Inv:
            return inverse(walk(t[0]))
        if cls is ErrorConst:
            return meadow.lattice.bottom, rings.TOK
        if cls is Pow:
            base, n = t
            base = walk(base)
            if n == 0:
                # x^0 keeps the component information: 1 + 0*x
                return add(walk(_ONE), meadow._zero_of(base))
            if n < 0:
                base, n = inverse(base), -n
            if n == 1:
                return base
            # every factor lies at the base's node k: its ring takes the power,
            # after the meet the first square asks for (k, or NotALattice on a cycle)
            k, p = base
            meadow.lattice.meet(k, k)
            try:
                return k, meadow.dl.ring_at[k].power(p, n)
            except ValueTooLarge as exc:
                raise ValueTooLarge(f"{exc}: {format_term(t)}") from None
        raise TypeError(f"not a term: {t!r}")

    return meadow._wrap(walk(t))


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
