"""Expression language over a meadow: parser, evaluator, formatting.

Grammar (whitespace insignificant, left associative, '^' binds tightest):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' signed-int)?
    atom   := integer | 'a' | identifier | '(' expr ')'

The literal 'a' is the error constant and is never a variable.  Numerals
enter at the top node.  Every well-formed closed term evaluates: division
never fails, it lands on 'a' instead.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# Deepest term tree and parenthesis nesting the parser accepts.  The parser
# recurses four frames per parenthesis and eval_term, format_term and the
# law compiler one frame per tree level, so this keeps them all well inside
# Python's default recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
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


def parse(text: str) -> Term:
    p = _Parser(text)
    node, _depth = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return node


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
    """Total evaluation; unbound variables are the only failure mode."""
    env = env or {}
    if isinstance(t, Numeral):
        return meadow.numeral(t.n)
    if isinstance(t, ErrorConst):
        return meadow.a
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundVariable(f"variable {t.name!r} has no binding")
        return env[t.name]
    if isinstance(t, Add):
        return meadow.add(eval_term(t.left, meadow, env), eval_term(t.right, meadow, env))
    if isinstance(t, Sub):
        return meadow.add(eval_term(t.left, meadow, env), meadow.neg(eval_term(t.right, meadow, env)))
    if isinstance(t, Mul):
        return meadow.mul(eval_term(t.left, meadow, env), eval_term(t.right, meadow, env))
    if isinstance(t, Div):
        return meadow.mul(eval_term(t.left, meadow, env), meadow.inverse(eval_term(t.right, meadow, env)))
    if isinstance(t, Neg):
        return meadow.neg(eval_term(t.arg, meadow, env))
    if isinstance(t, Inv):
        return meadow.inverse(eval_term(t.arg, meadow, env))
    if isinstance(t, Pow):
        base = eval_term(t.base, meadow, env)
        if t.exponent == 0:
            # x^0 keeps the component information: 1 + 0*x
            return meadow.add(meadow.one, meadow.zero_of(base))
        if t.exponent < 0:
            return _power(meadow.mul, meadow.inverse(base), -t.exponent)
        return _power(meadow.mul, base, t.exponent)
    raise TypeError(f"not a term: {t!r}")


def _power(mul, x, n: int):
    """x multiplied by itself to n >= 1 factors, by square-and-multiply.

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
