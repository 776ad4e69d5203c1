"""Reference semantics for the benchmark's output checks.

A small, slow and independent interpreter of lattice files: rings are
plain ``int`` / ``Fraction`` / tuple payloads, homs are applied straight
from their JSON map specs, and the total operations follow the paper's
construction (land at the meet, invert at the unique maximal node where
the image is a unit, else fall to the error element ``a``).  It shares no
code with the ``meadows`` package, so a check against it does not trust
the library.  Validation is out of scope: files handed to it are assumed
to be valid unless ``ambiguous_element`` says otherwise.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# rings: a spec is the JSON ring object of a lattice file


def kind(spec) -> str:
    if spec in ("Z", "Q", "zero"):
        return spec
    for key in ("mod", "poly", "product"):
        if key in spec:
            return key
    raise ValueError(f"unknown ring spec {spec!r}")


def is_finite(spec) -> bool:
    k = kind(spec)
    if k in ("mod", "zero"):
        return True
    if k == "product":
        return all(is_finite(f) for f in spec["product"])
    return False


def is_field(spec) -> bool:
    k = kind(spec)
    if k == "Q":
        return True
    if k == "mod":
        n = spec["mod"]
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
    return False


def from_int(spec, n: int):
    k = kind(spec)
    if k == "Z":
        return n
    if k == "Q":
        return Fraction(n)
    if k == "mod":
        return n % spec["mod"]
    if k == "product":
        return tuple(from_int(f, n) for f in spec["product"])
    if k == "poly":
        return _trim(spec, (from_int(spec["poly"]["base"], n),))
    return None


def _trim(spec, coeffs) -> tuple:
    zero = from_int(spec["poly"]["base"], 0)
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return tuple(coeffs)


def r_add(spec, x, y):
    k = kind(spec)
    if k in ("Z", "Q"):
        return x + y
    if k == "mod":
        return (x + y) % spec["mod"]
    if k == "product":
        return tuple(r_add(f, a, b) for f, a, b in zip(spec["product"], x, y))
    if k == "poly":
        base = spec["poly"]["base"]
        zero = from_int(base, 0)
        return _trim(spec, (r_add(base, a, b) for a, b in itertools.zip_longest(x, y, fillvalue=zero)))
    return None


def r_mul(spec, x, y):
    k = kind(spec)
    if k in ("Z", "Q"):
        return x * y
    if k == "mod":
        return (x * y) % spec["mod"]
    if k == "product":
        return tuple(r_mul(f, a, b) for f, a, b in zip(spec["product"], x, y))
    if k == "poly":
        base = spec["poly"]["base"]
        out = [from_int(base, 0)] * max(len(x) + len(y) - 1, 0)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                out[i + j] = r_add(base, out[i + j], r_mul(base, a, b))
        return _trim(spec, out)
    return None


def r_neg(spec, x):
    k = kind(spec)
    if k in ("Z", "Q"):
        return -x
    if k == "mod":
        return (-x) % spec["mod"]
    if k == "product":
        return tuple(r_neg(f, a) for f, a in zip(spec["product"], x))
    if k == "poly":
        return tuple(r_neg(spec["poly"]["base"], a) for a in x)
    return None


def r_pow(spec, x, n: int):
    """x**n for n >= 1 by square-and-multiply (multiplication is associative)."""
    out = from_int(spec, 1)
    while n:
        if n & 1:
            out = r_mul(spec, out, x)
        x = r_mul(spec, x, x)
        n >>= 1
    return out


def r_is_unit(spec, x) -> bool:
    k = kind(spec)
    if k == "Z":
        return x in (1, -1)
    if k == "Q":
        return x != 0
    if k == "mod":
        return math.gcd(x, spec["mod"]) == 1
    if k == "product":
        return all(r_is_unit(f, a) for f, a in zip(spec["product"], x))
    if k == "poly":
        # coefficients lie in a field, so the units are the nonzero constants
        return len(x) == 1
    return True


def r_inv(spec, x):
    k = kind(spec)
    if k == "Z":
        return x
    if k == "Q":
        return 1 / x
    if k == "mod":
        return pow(x, -1, spec["mod"])
    if k == "product":
        return tuple(r_inv(f, a) for f, a in zip(spec["product"], x))
    if k == "poly":
        return (r_inv(spec["poly"]["base"], x[0]),)
    return None


def r_elements(spec) -> list:
    """All payloads of a finite ring, in the library's documented order."""
    k = kind(spec)
    if k == "zero":
        return [None]
    if k == "mod":
        return list(range(spec["mod"]))
    if k == "product":
        return list(itertools.product(*(r_elements(f) for f in spec["product"])))
    raise ValueError(f"{spec!r} is infinite")


def r_value(spec, raw):
    """Payload of a JSON value (the lattice-file value syntax)."""
    k = kind(spec)
    if k == "Z":
        return int(raw)
    if k == "Q":
        return Fraction(raw)
    if k == "mod":
        return raw % spec["mod"]
    if k == "product":
        return tuple(r_value(f, v) for f, v in zip(spec["product"], raw))
    if k == "poly":
        return _trim(spec, (r_value(spec["poly"]["base"], c) for c in raw))
    return None


def r_format(spec, x) -> str:
    k = kind(spec)
    if k == "zero":
        return "a"
    if k in ("Z", "Q", "mod"):
        return str(x)
    if k == "product":
        return "(" + ", ".join(r_format(f, a) for f, a in zip(spec["product"], x)) + ")"
    var = spec["poly"].get("var", "x")
    parts = []
    for i, c in enumerate(x):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            power = var if i == 1 else f"{var}^{i}"
            parts.append(power if c == 1 else f"{c}{power}")
    return " + ".join(parts) if parts else "0"


def make_map(mapspec, src, dst):
    """The payload function of a JSON hom spec from ring src to ring dst."""
    if mapspec == "identity":
        return lambda x: x
    if mapspec == "include_q":
        return Fraction
    if mapspec == "unit_map":
        return lambda x: from_int(dst, x)
    if "reduce_mod" in mapspec:
        return lambda x: x % mapspec["reduce_mod"]
    if "project" in mapspec:
        return lambda x: x[mapspec["project"]]
    if "eval_at" in mapspec:
        point = r_value(dst, mapspec["eval_at"])

        def horner(x):
            acc = from_int(dst, 0)
            for c in reversed(x):
                acc = r_add(dst, r_mul(dst, acc, point), c)
            return acc

        return horner
    if "table" in mapspec:
        table = {r_value(src, i): r_value(dst, o) for i, o in mapspec["table"]}
        return table.__getitem__
    raise ValueError(f"unknown map {mapspec!r}")


# ---------------------------------------------------------------------------
# total operations over a lattice file


class AmbiguousReference(Exception):
    """An element inverts at more than one maximal node."""


class Structure:
    """The carrier and operations a lattice file denotes.

    Elements are ``(node, payload)`` pairs; the error element is
    ``(bottom, None)``.
    """

    def __init__(self, data: dict):
        self.ring = {n: s["ring"] for n, s in data["nodes"].items()}
        self.nodes = sorted(self.ring)
        idx = {n: i for i, n in enumerate(self.nodes)}
        size = len(self.nodes)
        below = [[i == j for j in range(size)] for i in range(size)]  # below[up][lo]
        for lo, up in data["order"]:
            below[idx[up]][idx[lo]] = True
        for k in range(size):
            for i in range(size):
                if below[i][k]:
                    for j in range(size):
                        if below[k][j]:
                            below[i][j] = True
        self.down = {
            n: frozenset(self.nodes[j] for j in range(size) if below[idx[n]][j]) for n in self.nodes
        }
        self.bottom = next(n for n in self.nodes if len(self.down[n]) == 1)
        self.top = next(n for n in self.nodes if len(self.down[n]) == size)
        self.maps = {
            (h["from"], h["to"]): make_map(h["map"], self.ring[h["from"]], self.ring[h["to"]])
            for h in data.get("homs", [])
        }
        self._meets: dict = {}
        self._paths: dict = {}

    # -- order -----------------------------------------------------------------

    def leq(self, lo, up) -> bool:
        return lo in self.down[up]

    def maximal(self, subset) -> list:
        return [s for s in subset if not any(t != s and self.leq(s, t) for t in subset)]

    def meet(self, i, j):
        key = (i, j)
        if key not in self._meets:
            (m,) = self.maximal(self.down[i] & self.down[j])
            self._meets[key] = m
        return self._meets[key]

    def covers_below(self, n) -> list:
        lows = self.down[n] - {n}
        return [lo for lo in lows if not any(m != lo and self.leq(lo, m) for m in lows)]

    def push(self, x, node):
        """Image of x in the ring at a node below x's node, along any cover path."""
        current, value = x
        if current == node:
            return value
        if node == self.bottom:
            return None
        path = self._paths.get((current, node))
        if path is None:
            path, walk = [], current
            while walk != node:
                nxt = min(lo for lo in self.covers_below(walk) if self.leq(node, lo))
                path.append((walk, nxt))
                walk = nxt
            self._paths[(current, node)] = path
        for up, lo in path:
            value = self.maps[(up, lo)](value)
        return value

    # -- elements and operations -------------------------------------------------

    @property
    def a(self):
        return (self.bottom, None)

    def numeral(self, n: int):
        return (self.top, from_int(self.ring[self.top], n))

    def zero_of(self, x):
        return (x[0], from_int(self.ring[x[0]], 0))

    def is_finite(self) -> bool:
        return all(is_finite(s) for s in self.ring.values())

    def elements(self) -> list:
        return [(n, v) for n in self.nodes for v in r_elements(self.ring[n])]

    def add(self, x, y):
        k = self.meet(x[0], y[0])
        return (k, r_add(self.ring[k], self.push(x, k), self.push(y, k)))

    def mul(self, x, y):
        k = self.meet(x[0], y[0])
        return (k, r_mul(self.ring[k], self.push(x, k), self.push(y, k)))

    def neg(self, x):
        return (x[0], r_neg(self.ring[x[0]], x[1]))

    def inverse(self, x):
        support = [j for j in self.down[x[0]] if r_is_unit(self.ring[j], self.push(x, j))]
        tops = self.maximal(support)
        if len(tops) != 1:
            raise AmbiguousReference(f"{x!r} inverts at {sorted(tops)}")
        (j,) = tops
        return (j, r_inv(self.ring[j], self.push(x, j)))

    def power(self, x, n: int):
        if n == 0:
            return self.add(self.numeral(1), self.zero_of(x))
        if n < 0:
            x, n = self.inverse(x), -n
        return (x[0], r_pow(self.ring[x[0]], x[1], n))

    def format(self, x) -> str:
        if x[1] is None and kind(self.ring[x[0]]) == "zero":
            return "a"
        return f"{r_format(self.ring[x[0]], x[1])} @ {x[0]}"

    # -- theory ------------------------------------------------------------------

    def ambiguous_element(self):
        """First element (finite carriers only) without a unique inverse node."""
        for x in self.elements():
            try:
                self.inverse(x)
            except AmbiguousReference:
                return x
        return None

    def is_chain(self) -> bool:
        return all(self.leq(i, j) or self.leq(j, i) for i in self.nodes for j in self.nodes)

    def avl_holds(self) -> bool:
        """AVL, exhaustively: every x with x^-1 = a is its own component zero."""
        return all(self.inverse(x) != self.a or self.zero_of(x) == x for x in self.elements())

    def ideal_counts(self) -> tuple[int, int]:
        """(proper ideals, maximal ideals) of a finite carrier, by search.

        An ideal is a subset that holds 0 and is closed under addition and
        under multiplication by every element; each node's slice is then a
        ring ideal and the transitions map slices into slices.  It is
        proper when it misses 1.  Every ideal is the closure of its own
        elements, so adding one element at a time to the closure of {0}
        reaches them all.
        """
        xs = self.elements()

        def close(gens) -> frozenset:
            ideal, todo = set(), list(gens)
            while todo:
                x = todo.pop()
                if x not in ideal:
                    ideal.add(x)
                    todo += [self.add(x, y) for y in ideal] + [self.mul(r, x) for r in xs]
            return frozenset(ideal)

        found, todo = set(), [close([self.numeral(0)])]
        while todo:
            ideal = todo.pop()
            if ideal not in found:
                found.add(ideal)
                todo += [close(ideal | {x}) for x in xs if x not in ideal]
        proper = [i for i in found if self.numeral(1) not in i]
        maximal = [i for i in proper if not any(i < j for j in proper)]
        return len(proper), len(maximal)

    def expected_verdicts(self) -> dict:
        """Suite verdicts fixed by theory, for a valid finite meadow.

        PM, CM, the derived identities and the assembly laws hold in every
        meadow; NVL holds iff there are exactly two nodes; CIL holds iff
        there are two nodes with a field on top; the strong assembly law
        A3' holds iff the lattice is a chain.  AVL is checked exhaustively.
        """
        two = len(self.nodes) == 2
        out = dict.fromkeys(("PM", "CM", "Identities", "AssemblyAdd", "AssemblyMul"), True)
        out["StrongAssembly"] = self.is_chain()
        out["NVL"] = two
        out["CIL"] = two and is_field(self.ring[self.top])
        out["AVL"] = self.avl_holds()
        return out


# ---------------------------------------------------------------------------
# expression trees (the generator's own representation)


def evaluate(tree, s: Structure, env: dict):
    """Value of a generated expression tree; see gen.render for the syntax."""
    op = tree[0]
    if op == "num":
        return s.numeral(tree[1])
    if op == "a":
        return s.a
    if op == "var":
        return env[tree[1]]
    if op == "neg":
        return s.neg(evaluate(tree[1], s, env))
    if op == "^":
        return s.power(evaluate(tree[1], s, env), tree[2])
    left, right = evaluate(tree[1], s, env), evaluate(tree[2], s, env)
    if op == "+":
        return s.add(left, right)
    if op == "-":
        return s.add(left, s.neg(right))
    if op == "*":
        return s.mul(left, right)
    if op == "/":
        return s.mul(left, s.inverse(right))
    raise ValueError(f"unknown operator {op!r}")
