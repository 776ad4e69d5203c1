"""Exact arithmetic for a closed family of unital commutative rings.

Descriptors name the rings, values carry canonical payloads (so value
equality is structural equality), and homs are small rule objects that can
be applied and validated exactly.  Everything is immutable.

Each descriptor class holds its ring's arithmetic as methods on raw
payloads, and each hom rule class compiles, once per hom, to a function on
raw payloads (``RingHom.fn``); the module functions check that their
arguments belong together, make one call and wrap the result.  A new ring
or map is one new class here.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import (
    DescriptorMismatch,
    InfiniteCarrier,
    NotAUnit,
    RingTooLarge,
    TableIncomplete,
    ValueTooLarge,
)
from .report import ValidationReport

# ---------------------------------------------------------------------------
# descriptors


class RingDescriptor:
    """Base of the closed descriptor family.

    A descriptor's methods take and return raw payloads, never checking
    them (no payload holds a ``RingValue``; a product's is a tuple of its
    factors' payloads): ``canon`` (raw input to canonical payload),
    ``to_raw`` (its inverse, JSON-ready), ``from_int``, ``add``, ``mul``,
    ``neg``, ``is_unit``, ``inverse`` (of a unit), ``characteristic`` (None
    for characteristic zero), ``random`` and ``format``.  A finite ring sets
    ``finite`` and gives ``size``, ``elements``, ``index_row`` and
    ``index_table`` (a row, and the whole, of the tables of
    ``FiniteTables``, over ``elements`` indices); an infinite
    one gives the probe payloads of ``sample``.  ``generators`` are payloads whose images fix a ring hom
    out of the ring.
    """

    __slots__ = ()

    finite = False

    def size(self) -> int:
        raise InfiniteCarrier(f"{self} is infinite")

    def elements(self) -> list:
        raise InfiniteCarrier(f"{self} cannot be enumerated")

    def prime_field(self) -> bool:
        """True for Q and Z_p with p prime, the allowed coefficient fields."""
        return False

    def variables(self) -> list:
        """Payloads of the ring's polynomial variables: x for F[x], none otherwise."""
        return []

    def generators(self) -> list:
        """Payloads on which two ring homs out of this ring agree only if they are equal.

        Z, Z_n and Q need none beyond 1: Z is initial, Z_n is its quotient
        and Q its localisation, so a ring hom out of each is unique.  F[x]
        needs x; a product needs its idempotents and its factors' generators.
        """
        return self.variables()

    def characteristic(self):
        return None

    def index_table(self, name: str) -> list[list[int]]:
        """The whole ``add`` or ``mul`` table of a finite ring, row by row."""
        return [self.index_row(name, i) for i in range(self.size())]

    def to_raw(self, a):
        return a

    def format(self, a):
        return str(a)


class _Number(RingDescriptor):
    """Z and Q: payloads are Python numbers, added and multiplied as such."""

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a


@dataclass(frozen=True)
class Integers(_Number):
    def __str__(self):
        return "Z"

    def canon(self, raw):
        if isinstance(raw, Fraction):
            if raw.denominator != 1:
                raise ValueError(f"{raw} is not an integer")
            raw = raw.numerator
        if not isinstance(raw, int):
            raise ValueError(f"bad integer payload {raw!r}")
        return raw

    def from_int(self, m):
        return m

    def is_unit(self, a):
        return a in (1, -1)

    def inverse(self, a):
        return a

    def sample(self):
        return list(range(-3, 4))

    def random(self, rng):
        return rng.randrange(-50, 51)


@dataclass(frozen=True)
class Rationals(_Number):
    def __str__(self):
        return "Q"

    def canon(self, raw):
        return Fraction(raw)

    def to_raw(self, a):
        return str(a) if a.denominator != 1 else a.numerator

    def from_int(self, m):
        return Fraction(m)

    def is_unit(self, a):
        return a != 0

    def inverse(self, a):
        return 1 / a

    def prime_field(self):
        return True

    def sample(self):
        ints = [Fraction(k) for k in range(-3, 4)]
        return ints + [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3)]

    def random(self, rng):
        return Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))


@dataclass(frozen=True)
class Mod(RingDescriptor):
    n: int

    finite = True

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError("modulus must be an integer >= 2; the one-element ring is Zero")

    def __str__(self):
        return f"Z{self.n}"

    def canon(self, raw):
        if not isinstance(raw, int):
            raise ValueError(f"bad residue payload {raw!r}")
        return raw % self.n

    def from_int(self, m):
        return m % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def is_unit(self, a):
        return math.gcd(a, self.n) == 1

    def inverse(self, a):
        return pow(a, -1, self.n)

    def characteristic(self):
        return self.n

    def prime_field(self):
        return _is_prime(self.n)

    def size(self):
        return self.n

    def elements(self):
        return list(range(self.n))

    def index_row(self, name: str, i: int) -> list[int]:
        n = self.n
        if name == "add":  # i, i + 1, ..., n - 1, 0, ..., i - 1
            return [*range(i, n), *range(i)]
        # 0, i, 2i, ... reduced mod n
        return list(map(n.__rmod__, range(0, i * n, i))) if i else [0] * n

    def random(self, rng):
        return rng.randrange(self.n)


@dataclass(frozen=True)
class Poly(RingDescriptor):
    """Polynomials over a prime field; payloads are ascending coefficient tuples."""

    base: RingDescriptor
    var: str = "x"

    def __post_init__(self):
        if not self.base.prime_field():
            raise ValueError("polynomial coefficients must come from Q or Z_p with p prime")

    def __str__(self):
        return f"{self.base}[{self.var}]"

    def _trim(self, coeffs: list) -> tuple:
        zero = self.base.from_int(0)
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        return tuple(coeffs)

    def canon(self, raw):
        return self._trim([_canon_payload(self.base, c) for c in raw])

    def to_raw(self, a):
        return [self.base.to_raw(c) for c in a]

    def from_int(self, m):
        return self._trim([self.base.from_int(m)])

    def add(self, a, b):
        zero = self.base.from_int(0)
        return self._trim([self.base.add(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=zero)])

    def mul(self, a, b):
        if not a or not b:
            return ()
        # coefficients are ints (Z_p) or Fractions (Q): sum plain products, reduce once
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        canon = self.base.canon
        return self._trim([canon(c) for c in out])

    def neg(self, a):
        return tuple(self.base.neg(c) for c in a)

    def is_unit(self, a):
        # field coefficients, so units are exactly the nonzero constants
        return len(a) == 1

    def inverse(self, a):
        return (self.base.inverse(a[0]),)

    def characteristic(self):
        return self.base.characteristic()

    def variables(self):
        return [(self.base.from_int(0), self.base.from_int(1))]

    def sample(self):
        consts = [self.canon([c]) for c in _pool(self.base)]
        x = self.variables()[0]
        return consts + [x, self.add(x, self.from_int(1))]

    def random(self, rng):
        deg = rng.randrange(0, 4)
        return self.canon([self.base.random(rng) for _ in range(deg + 1)])

    def format(self, a):
        # ascending powers
        var = self.var
        parts = []
        for k, c in enumerate(a):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}"
                power = var if k == 1 else f"{var}^{k}"
                parts.append(f"{head}{power}" if head else power)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class Product(RingDescriptor):
    """Payloads are tuples of raw factor payloads; ``canon`` also takes factor ``RingValue``s."""

    factors: tuple[RingDescriptor, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        if ZERO in factors:
            raise ValueError("product factors may not include the zero ring")
        object.__setattr__(self, "finite", all(f.finite for f in factors))

    def __str__(self):
        return "(" + " x ".join(str(f) for f in self.factors) + ")"

    def canon(self, raw):
        items = tuple(raw)
        if len(items) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} coordinates, got {len(items)}")
        return tuple(_payload(f, it) for f, it in zip(self.factors, items))

    def to_raw(self, a):
        return [f.to_raw(x) for f, x in zip(self.factors, a)]

    def from_int(self, m):
        return tuple(f.from_int(m) for f in self.factors)

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def is_unit(self, a):
        return all(f.is_unit(x) for f, x in zip(self.factors, a))

    def inverse(self, a):
        return tuple(f.inverse(x) for f, x in zip(self.factors, a))

    def characteristic(self):
        chars = [f.characteristic() for f in self.factors]
        return None if None in chars else math.lcm(*chars)

    def generators(self):
        # each idempotent e_i, and each factor's generators at coordinate i:
        # a hom restricted to coordinate i is a unital hom into f(e_i)S
        zeros = [f.from_int(0) for f in self.factors]
        out = []
        for i, f in enumerate(self.factors):
            for g in [f.from_int(1), *f.generators()]:
                out.append(tuple(zeros[:i] + [g] + zeros[i + 1 :]))
        return out

    def size(self):
        return math.prod(f.size() for f in self.factors)

    def elements(self):
        return list(itertools.product(*map(_listed, self.factors)))

    def index_row(self, name: str, i: int) -> list[int]:
        # the factors' rows at the coordinates of element i, in mixed radix
        digits = []
        for f in reversed(self.factors):
            i, d = divmod(i, f.size())
            digits.append(d)
        row = [0]
        for f, d in zip(self.factors, reversed(digits)):
            q, frow = f.size(), f.index_row(name, d)
            row = [x * q + y for x in row for y in frow]
        return row

    def index_table(self, name: str) -> list[list[int]]:
        # all rows at once: the factor tables combined block by block
        table = [[0]]
        for f in self.factors:
            q, rows = f.size(), f.index_table(name)
            table = [
                [x + y for x in shifted for y in row]
                for shifted in ([x * q for x in left] for left in table)
                for row in rows
            ]
        return table

    def sample(self):
        return list(itertools.islice(itertools.product(*map(_pool, self.factors)), 64))

    def random(self, rng):
        return tuple(f.random(rng) for f in self.factors)

    def format(self, a):
        return "(" + ", ".join(_format(f, x) for f, x in zip(self.factors, a)) + ")"


@dataclass(frozen=True)
class Zero(RingDescriptor):
    finite = True

    def __str__(self):
        return "0-ring"

    def _token(self, *args):
        return TOK

    # every operation lands on the one element, which is also the unit
    canon = from_int = add = mul = neg = inverse = random = _token

    def to_raw(self, a):
        return None

    def is_unit(self, a):
        return True

    def characteristic(self):
        return 1

    def size(self):
        return 1

    def elements(self):
        return [TOK]

    def index_row(self, name: str, i: int) -> list[int]:
        return [0]

    def format(self, a):
        return "a"


Z = Integers()
Q = Rationals()
ZERO = Zero()

#: payload of the unique zero-ring element
TOK = None


#: Miller-Rabin bases: the primes up to 41, which decide primality exactly
#: below ``PRIME_TEST_LIMIT``, the least strong pseudoprime to all of them
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981

#: the most elements ``enumerate_ring`` lists
ENUMERATION_LIMIT = 2**20

#: the most cells an add or mul table may have (a table stays well under 1 GB)
TABLE_CELL_LIMIT = 2**22


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a number past ``PRIME_TEST_LIMIT`` is refused."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is too large to test for primality exactly")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_finite(desc: RingDescriptor) -> bool:
    return desc.finite


def ring_size(desc: RingDescriptor) -> int:
    """Number of elements; raises for infinite carriers."""
    return desc.size()


# ---------------------------------------------------------------------------
# values


@dataclass(frozen=True)
class RingValue:
    ring: RingDescriptor
    payload: object

    _hash = None  # hash((ring, payload)), stored on first use

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ring == other.ring and self.payload == other.payload

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self.payload))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return format_value(self)


def _canon_payload(desc: RingDescriptor, raw):
    if isinstance(raw, (bool, float)):
        # a float is already rounded, and True is not a ring element
        raise ValueError(f"inexact payload {raw!r} for {desc}; use an int, Fraction or string")
    return desc.canon(raw)


def _payload(desc: RingDescriptor, raw):
    """The canonical payload of raw data, or of a ``RingValue`` of ``desc``."""
    if isinstance(raw, RingValue):
        if raw.ring != desc:
            raise DescriptorMismatch(f"{raw} is not in {desc}")
        return raw.payload
    return _canon_payload(desc, raw)


def ring_value(desc: RingDescriptor, raw) -> RingValue:
    """Coerce raw data into the canonical element of ``desc``."""
    return raw if isinstance(raw, RingValue) and raw.ring == desc else RingValue(desc, _payload(desc, raw))


def zero_value(desc: RingDescriptor) -> RingValue:
    return from_int(desc, 0)


def one_value(desc: RingDescriptor) -> RingValue:
    return from_int(desc, 1)


def from_int(desc: RingDescriptor, m: int) -> RingValue:
    """The canonical image of the integer ``m``, i.e. m times the unit."""
    return RingValue(desc, desc.from_int(m))


def _require_same(desc: RingDescriptor, *values: RingValue) -> None:
    for v in values:
        if not isinstance(v, RingValue) or (v.ring is not desc and v.ring != desc):
            raise DescriptorMismatch(f"{v} does not belong to {desc}")


def add(a: RingValue, b: RingValue) -> RingValue:
    desc = a.ring
    _require_same(desc, a, b)
    return RingValue(desc, desc.add(a.payload, b.payload))


def mul(a: RingValue, b: RingValue) -> RingValue:
    desc = a.ring
    _require_same(desc, a, b)
    return RingValue(desc, desc.mul(a.payload, b.payload))


def neg(a: RingValue) -> RingValue:
    desc = a.ring
    _require_same(desc, a)
    return RingValue(desc, desc.neg(a.payload))


def sub(a: RingValue, b: RingValue) -> RingValue:
    return add(a, neg(b))


def is_unit(v: RingValue) -> bool:
    """True iff the element has a multiplicative inverse in its ring."""
    return v.ring.is_unit(v.payload)


def unit_inverse(v: RingValue) -> RingValue:
    desc = v.ring
    if not is_unit(v):
        raise NotAUnit(f"{v} has no inverse in {desc}")
    return RingValue(desc, desc.inverse(v.payload))


def enumerate_ring(desc: RingDescriptor) -> list[RingValue]:
    """All elements, once each, in a deterministic order.

    A finite ring of more than ``ENUMERATION_LIMIT`` elements is refused
    before anything is built.
    """
    return [RingValue(desc, p) for p in _listed(desc)]


def _listed(desc: RingDescriptor) -> list:
    if desc.finite and desc.size() > ENUMERATION_LIMIT:
        raise RingTooLarge(
            f"{desc} has {desc.size()} elements, more than the {ENUMERATION_LIMIT} that can be listed"
        )
    return desc.elements()


def check_cells(what: str, n: int) -> None:
    """Refuse the N x N tables of ``what``, n elements, past ``TABLE_CELL_LIMIT`` cells."""
    if n * n > TABLE_CELL_LIMIT:
        raise RingTooLarge(
            f"{what} has {n} elements: its tables would have {n * n} cells, more than the {TABLE_CELL_LIMIT} that are built"
        )


class FiniteTables:
    """A finite ring numbered 0..N-1 in ``enumerate_ring`` order.

    ``payloads[i]`` is the payload of element i (element 0 is the zero)
    and ``index`` maps it back to i; ``elements`` wraps them as
    ``RingValue``s.  ``add`` and ``mul`` are N x N tables of element
    indices (past ``TABLE_CELL_LIMIT`` cells, ``RingTooLarge``), built by
    the descriptor's ``index_table``, and ``row`` computes one of their rows
    alone (``index_row``), for a check that needs a few; ``neg`` lists the
    index of each element's negative, and ``inverse`` that of its inverse,
    None where it is not a unit.  Everything but ``payloads`` is built the
    first time it is read.  A
    product's order is mixed radix with the last factor fastest, so its
    tables and rows combine its factors' with integer arithmetic alone.  A
    directed lattice keeps one per finite ring (``DirectedLattice.tables``).
    """

    def __init__(self, desc: RingDescriptor):
        self.desc = desc
        self.payloads = _listed(desc)
        self._rows: dict = {}  # (op, i) -> row i of the op's table

    def row(self, op: str, i: int) -> list[int]:
        """Row i of ``add`` or ``mul``, computed alone (``index_row``) and kept."""
        got = self._rows.get((op, i))
        if got is None:
            got = self._rows[op, i] = self.desc.index_row(op, i)
        return got

    @functools.cached_property
    def index(self) -> dict:
        return {p: i for i, p in enumerate(self.payloads)}

    @functools.cached_property
    def elements(self) -> list[RingValue]:
        return [RingValue(self.desc, p) for p in self.payloads]

    @functools.cached_property
    def neg(self) -> list[int]:
        index, neg = self.index, self.desc.neg
        return [index[neg(p)] for p in self.payloads]

    @functools.cached_property
    def inverse(self) -> list[int | None]:
        index, desc = self.index, self.desc
        return [index[desc.inverse(p)] if desc.is_unit(p) else None for p in self.payloads]

    @functools.cached_property
    def add(self) -> list[list[int]]:
        return self._table("add")

    @functools.cached_property
    def mul(self) -> list[list[int]]:
        return self._table("mul")

    def _table(self, op: str) -> list[list[int]]:
        check_cells(str(self.desc), len(self.payloads))
        return self.desc.index_table(op)


def is_field(desc: RingDescriptor) -> bool:
    """Exact field test: exhaustive unit scan on finite rings."""
    if is_finite(desc):
        elems = enumerate_ring(desc)
        if len(elems) < 2:
            return False
        zero = zero_value(desc)
        return all(is_unit(v) for v in elems if v != zero)
    return desc.prime_field()  # Q is the family's only infinite field


def sample_pool(desc: RingDescriptor) -> list[RingValue]:
    """Fixed deterministic probe set; the full carrier when finite."""
    return [RingValue(desc, p) for p in _pool(desc)]


def _pool(desc: RingDescriptor) -> list:
    return _listed(desc) if desc.finite else desc.sample()


def random_value(desc: RingDescriptor, rng: random.Random) -> RingValue:
    return RingValue(desc, desc.random(rng))


def format_value(v: RingValue) -> str:
    return _format(v.ring, v.payload)


def _format(desc: RingDescriptor, p) -> str:
    try:
        return desc.format(p)
    except ValueError as exc:  # an int past Python's int/str digit limit
        raise ValueTooLarge(
            f"a value of {desc} is past Python's int/str digit limit and cannot be printed"
        ) from exc


# ---------------------------------------------------------------------------
# ring homomorphisms


class HomRule:
    """Base of the hom rules.

    ``compile(h)`` returns the map of ``h`` on raw payloads: a function from
    a payload of ``h.source`` to the payload of its image in ``h.target``,
    which trusts its argument.  It runs once, when the ``RingHom`` is built,
    and the hom keeps the function as ``h.fn``.  The endpoints are checked
    by the factories (``project``, ``pair_hom``, ``compose_homs``), and a
    directed lattice checks each edge against its nodes' rings before it
    composes a transition through it; a hand-built rule is taken as given,
    except that ``Identity`` refuses two different rings and ``TableRule``
    any rings but its ``ends``.  ``injective(h)``
    decides injectivity on an infinite source from the rule's structure, as
    ``hom_injective`` reports it.  ``proves(h)`` is True when ``h``'s
    endpoints type-check for the rule, which makes ``h`` a ring hom
    (``hom_proof``); a rule that cannot be type-checked proves nothing.
    """

    __slots__ = ()

    def injective(self, h: "RingHom"):
        return None, None

    def proves(self, h: "RingHom") -> bool:
        return False


def _same(p):
    return p


def _to_token(p):
    return TOK


@dataclass(frozen=True)
class Identity(HomRule):
    def compile(self, h):
        if h.source != h.target:
            raise DescriptorMismatch(f"{h} is not a map of one ring to itself")
        return _same

    def injective(self, h):
        return True, None

    def proves(self, h):
        return True


class _UnitImage(HomRule):
    """m to m times the unit of the target: the maps out of Z, and Z_n -> Z_m.

    Injective exactly when the target has characteristic zero; otherwise
    0 and the characteristic collide.
    """

    def compile(self, h):
        return h.target.from_int

    def injective(self, h):
        c = h.target.characteristic()
        if c is None:
            return True, None
        return False, (from_int(h.source, 0), from_int(h.source, c))

    def proves(self, h):
        # Z is initial; Z_n -> R is well defined when char R divides n
        if h.source == Z:
            return True
        c = h.target.characteristic()
        return isinstance(h.source, Mod) and c is not None and h.source.n % c == 0


@dataclass(frozen=True)
class IncludeRationals(_UnitImage):
    pass


@dataclass(frozen=True)
class ReduceIntMod(_UnitImage):
    """Z -> Z_n, canonical reduction; n lives in the target descriptor."""


@dataclass(frozen=True)
class ReduceModDiv(_UnitImage):
    """Z_n -> Z_m with m dividing n."""


@dataclass(frozen=True)
class UnitMap(_UnitImage):
    """Z -> R, m maps to m times the unit of R."""


@dataclass(frozen=True)
class PolyEvalAt(HomRule):
    point: RingValue  # element of the coefficient field

    def compile(self, h):
        # Horner's rule in the coefficient field
        base, point = h.target, self.point.payload
        zero, add, mul = base.from_int(0), base.add, base.mul

        def evaluate(p):
            acc = zero
            for c in reversed(p):
                acc = add(mul(acc, point), c)
            return acc

        return evaluate

    def injective(self, h):
        const = ring_value(h.source, [self.point.payload])
        return False, (const, RingValue(h.source, h.source.variables()[0]))

    def proves(self, h):
        return isinstance(h.source, Poly) and h.target == h.source.base == self.point.ring


@dataclass(frozen=True)
class ConstantEmbed(HomRule):
    """R -> R[x] as constant polynomials."""

    def compile(self, h):
        canon = h.target.canon
        return lambda p: canon((p,))

    def injective(self, h):
        return True, None

    def proves(self, h):
        return isinstance(h.target, Poly) and h.target.base == h.source


@dataclass(frozen=True)
class Project(HomRule):
    index: int

    def compile(self, h):
        return operator.itemgetter(self.index)

    def injective(self, h):
        # injective iff no other coordinate can vary freely
        return len(h.source.factors) == 1, None

    def proves(self, h):
        source = h.source
        return isinstance(source, Product) and 0 <= self.index < len(source.factors) and (
            h.target == source.factors[self.index]
        )


@dataclass(frozen=True)
class PairRule(HomRule):
    components: tuple["RingHom", ...]

    def compile(self, h):
        fns = tuple(c.fn for c in self.components)
        return lambda p: tuple(fn(p) for fn in fns)

    def injective(self, h):
        if any(hom_injective(c)[0] is True for c in self.components):
            return True, None
        if is_finite(h.target):
            # an infinite source does not embed in a finite product.  A ring
            # hom sends k to k times 1, so with c = char(target) 0 and c are
            # the first multiples of 1 to collide, unless the source's own
            # characteristic is at most c: then no two of them collide
            c, s = h.target.characteristic(), h.source.characteristic()
            if s and s <= c:
                return False, None
            return False, (from_int(h.source, 0), from_int(h.source, c))
        return None, None

    def proves(self, h):
        targets = tuple(c.target for c in self.components)
        return isinstance(h.target, Product) and h.target.factors == targets and all(
            c.source == h.source and c.rule.proves(c) for c in self.components
        )


@dataclass(frozen=True, eq=False, repr=False)
class TableRule(HomRule):
    """A hom given by its graph, the first entry for an input winning.

    ``entries`` are canonical (input, image) payload pairs of ``ends``, the
    (source, target) of ``table_hom`` or a lattice file; a hom between other
    rings is refused when it is built, with ``DescriptorMismatch``.  The
    compiled map is one dict read, and an input with no entry raises
    ``TableIncomplete``.  The rule compares, hashes and prints as ``graph``,
    its ``RingValue`` pairs sorted by the repr of each input (stably), built
    when first read.
    """

    entries: tuple
    ends: tuple

    @functools.cached_property
    def graph(self) -> tuple[tuple[RingValue, RingValue], ...]:
        source, target = self.ends
        pairs = ((RingValue(source, i), RingValue(target, o)) for i, o in self.entries)
        # every input lies in source, so its repr is a shared prefix, the payload's repr and ")"
        return tuple(sorted(pairs, key=lambda p: f"{p[0].payload!r})"))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.graph == other.graph

    def __hash__(self):
        return hash(self.graph)

    def __repr__(self):
        return f"TableRule(graph={self.graph!r})"

    def compile(self, h):
        source, target = self.ends
        if (source, target) != (h.source, h.target):
            raise DescriptorMismatch(f"a table of {source} -> {target} is not a map {h.source} -> {h.target}")
        images, show = dict(reversed(self.entries)), h.source.format  # the first entry for an input wins

        def look_up(p):
            try:
                return images[p]
            except KeyError:
                raise TableIncomplete(f"no table entry for {show(p)}") from None

        return look_up


@dataclass(frozen=True)
class ComposeRule(HomRule):
    stages: tuple["RingHom", ...]  # applied left to right

    def compile(self, h):
        fns = tuple(stage.fn for stage in self.stages)

        def chain(p):
            for fn in fns:
                p = fn(p)
            return p

        return chain

    def injective(self, h):
        verdicts = [hom_injective(stage)[0] for stage in self.stages]
        if all(v is True for v in verdicts):
            return True, None
        if any(is_finite(stage.target) for stage in self.stages):
            return False, None
        return None, None

    def proves(self, h):
        stages = self.stages
        chained = (
            bool(stages)
            and stages[0].source == h.source
            and stages[-1].target == h.target
            and all(a.target == b.source for a, b in zip(stages, stages[1:]))
        )
        return chained and all(stage.rule.proves(stage) for stage in stages)


@dataclass(frozen=True)
class Collapse(HomRule):
    """The unique map into the zero ring."""

    def compile(self, h):
        return _to_token

    def injective(self, h):
        return False, (zero_value(h.source), one_value(h.source))

    def proves(self, h):
        return h.target == ZERO


@dataclass(frozen=True)
class RingHom:
    source: RingDescriptor
    target: RingDescriptor
    rule: HomRule
    # the rule's map on raw payloads (``HomRule.compile``), built with the hom
    fn: Callable = field(init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "fn", self.rule.compile(self))

    def __str__(self):
        return f"{type(self.rule).__name__}: {self.source} -> {self.target}"


def identity_hom(desc: RingDescriptor) -> RingHom:
    return RingHom(desc, desc, Identity())


def include_rationals() -> RingHom:
    return RingHom(Z, Q, IncludeRationals())


def reduce_mod(n: int) -> RingHom:
    return RingHom(Z, Mod(n), ReduceIntMod())


def mod_to_mod(n: int, m: int) -> RingHom:
    if n % m != 0:
        raise ValueError(f"{m} does not divide {n}")
    return RingHom(Mod(n), Mod(m), ReduceModDiv())


def unit_map(target: RingDescriptor) -> RingHom:
    return RingHom(Z, target, UnitMap())


def poly_eval_at(poly: Poly, point) -> RingHom:
    return RingHom(poly, poly.base, PolyEvalAt(ring_value(poly.base, point)))


def constant_embed(poly: Poly) -> RingHom:
    return RingHom(poly.base, poly, ConstantEmbed())


def project(prod: Product, index: int) -> RingHom:
    if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < len(prod.factors):
        raise ValueError(f"no factor {index!r} in {prod}")
    return RingHom(prod, prod.factors[index], Project(index))


def pair_hom(components) -> RingHom:
    components = tuple(components)
    if not components:
        raise ValueError("pairing needs at least one component")
    src = components[0].source
    if any(h.source != src for h in components):
        raise ValueError("paired homs must share a source")
    return RingHom(src, Product(tuple(h.target for h in components)), PairRule(components))


def table_hom(source: RingDescriptor, target: RingDescriptor, pairs) -> RingHom:
    """The hom whose graph is ``pairs`` of (input, image), each raw data or a ``RingValue``."""
    entries = tuple((_payload(source, i), _payload(target, o)) for i, o in pairs)
    return RingHom(source, target, TableRule(entries, (source, target)))


def compose_homs(*homs: RingHom) -> RingHom:
    """Chain homs; the first argument is applied first."""
    if not homs:
        raise ValueError("nothing to compose")
    flat: list[RingHom] = []
    for h in homs:
        if isinstance(h.rule, ComposeRule):
            flat.extend(h.rule.stages)
        else:
            flat.append(h)
    for left, right in zip(flat, flat[1:]):
        if left.target != right.source:
            raise ValueError(f"cannot chain {left} with {right}")
    stripped = [h for h in flat if not isinstance(h.rule, Identity)]
    if not stripped:
        stripped = [flat[0]]
    if len(stripped) == 1:
        return stripped[0]
    return RingHom(stripped[0].source, stripped[-1].target, ComposeRule(tuple(stripped)))


def collapse_hom(source: RingDescriptor) -> RingHom:
    return RingHom(source, ZERO, Collapse())


def hom_apply(h: RingHom, v: RingValue) -> RingValue:
    if not isinstance(v, RingValue) or (v.ring is not h.source and v.ring != h.source):
        raise DescriptorMismatch(f"{v} is not in the source of {h}")
    return RingValue(h.target, h.fn(v.payload))


#: the fixed sample of an infinite ring: this many random elements and pairs, drawn with this seed
SAMPLE_SIZE, SAMPLE_SEED = 64, 0


def _validation_inputs(desc: RingDescriptor):
    """(elements, pairs) to probe an infinite ring with: the fixed sample."""
    gens = [zero_value(desc), one_value(desc), neg(one_value(desc))]
    gens += [RingValue(desc, x) for x in desc.variables()]
    rng = random.Random(SAMPLE_SEED)
    extra = [random_value(desc, rng) for _ in range(SAMPLE_SIZE)]
    elems = gens + extra
    pairs = list(itertools.product(gens, gens))
    pairs += [(random_value(desc, rng), random_value(desc, rng)) for _ in range(SAMPLE_SIZE)]
    return elems, pairs


_HOM_CHECKS = ("preserves_zero", "preserves_one", "additive", "multiplicative")


def hom_proof(h: RingHom) -> ValidationReport | None:
    """``hom_validate``'s four checks, passed, when ``h``'s rule proves it; else None.

    A finite source reports the input counts of the exhaustive check
    (1, 1, |R|^2, |R|^2), so the report equals ``hom_validate``'s; an
    infinite one reports no inputs, and a note naming the rule.
    """
    if not h.rule.proves(h):
        return None
    report = ValidationReport(subject=str(h))
    if is_finite(h.source):
        pairs = ring_size(h.source) ** 2
        counts, note = (1, 1, pairs, pairs), ""
    else:
        counts, note = (0, 0, 0, 0), f"proved by the {type(h.rule).__name__} rule"
    for name, checked in zip(_HOM_CHECKS, counts):
        report.add(name, True, checked=checked, note=note)
    return report


class _OffTarget(Exception):
    """An image that is not an element of the hom's finite target."""


def hom_validate(h: RingHom, tables: Callable = FiniteTables) -> ValidationReport:
    """Check 0, 1, + and * preservation; violations become report content.

    A finite source is checked on every pair, on its ``FiniteTables``,
    ``tables(h.source)`` (a directed lattice passes its own, built once per
    ring): the hom is applied once per source element, and when the target
    is finite and no larger than the source each equation is a lookup in
    both rings' tables (a larger target's tables would cost more than the
    pairs they serve, so its images are added and multiplied as payloads).
    Once 0 and 1 are preserved, + and * are decided on additive generators
    (``_validate_on_index``).  An infinite source is probed with the fixed
    sample of ``_validation_inputs`` (``SAMPLE_SIZE`` random elements and
    pairs), element by element.  A table that misses an input ends the
    report with a failed ``table_covers_source`` check.
    """
    if is_finite(h.source):
        src = tables(h.source)
        if is_finite(h.target) and ring_size(h.target) <= len(src.payloads):
            try:
                return _validate_on_index(h, src, src if h.target == h.source else tables(h.target))
            except _OffTarget:
                pass
        return _validate_on_index(h, src, None)
    _, pairs = _validation_inputs(h.source)
    report = ValidationReport(subject=str(h))

    images: dict = {}

    def image(v):
        # memoised lazily, so a missing table entry fails at the same pair
        if v not in images:
            images[v] = hom_apply(h, v)
        return images[v]

    try:
        ok = image(zero_value(h.source)) == zero_value(h.target)
        report.add("preserves_zero", ok, None if ok else (zero_value(h.source),), checked=1)
        ok = image(one_value(h.source)) == one_value(h.target)
        report.add("preserves_one", ok, None if ok else (one_value(h.source),), checked=1)
        for name, op in (("additive", add), ("multiplicative", mul)):
            bad = next(((x, y) for x, y in pairs if image(op(x, y)) != op(image(x), image(y))), None)
            report.add(name, bad is None, bad, checked=len(pairs), sampled=True)
    except TableIncomplete as exc:
        report.add("table_covers_source", False, (str(exc),))
    return report


_UNSET = object()  # an image not computed yet


def _validate_on_index(h: RingHom, src: FiniteTables, dst: FiniteTables | None) -> ValidationReport:
    """hom_validate on a finite source, pairs in ``itertools.product`` order.

    Images are indices into ``dst`` when it is given, else target payloads
    combined by the target's ``add``/``mul``.  An image outside ``dst``
    raises ``_OffTarget``; only a structural rule mis-typed for its target,
    such as a ``Project`` onto another ring, gives one.  The map ``h.fn`` is
    applied once per input, on first use, in the order the pair-by-pair
    check asks for images, so a missing table entry fails at the same pair.
    Once zero is preserved, row 0 of + (0 + x = x) asks for every image in
    index order, so they are all computed then.

    Once 0 and 1 are also preserved, each equation is decided on
    G = {1} + ``generators()``, which generates the additive group of every
    finite ring here (1 generates Z_n; a product's idempotents and its
    factors' generators generate it coordinate by coordinate):

    - f is additive iff f(x + g) = f(x) + f(g) for every x and every g in G,
      one row of + per generator.  The g for which this holds at every x
      are closed under +: f(x + g + g') = f(x + g) + f(g') = f(x) + f(g) +
      f(g') = f(x) + f(g + g'), the last step at x = g.  In a finite group
      the sums of elements of G fill the subgroup they generate (-g is a
      multiple of g), so they hold at every element.
    - an additive f is multiplicative iff f(gh) = f(g)f(h) for every g, h in
      G: with x and y sums of elements of G, f(xy) and f(x)f(y) expand, by
      additivity, into the same sum.

    So a decision that holds proves its equation on all |R|^2 pairs, which
    the report counts, as ``hom_proof`` does.  Only an equation that fails
    (or is not decided) is scanned pair by pair, each row compared whole
    and one that differs walked, so a failing report keeps its first
    witness in product order.
    """
    desc, payloads = h.source, src.payloads
    fn, target = h.fn, h.target
    if dst is None:
        image_of = fn
        zero_t, one_t = target.from_int(0), target.from_int(1)

        def combine(op, a):  # b -> a op b on images
            return functools.partial(getattr(target, op), a)

    else:
        index = dst.index

        def image_of(p):
            k = index.get(fn(p))
            if k is None:
                raise _OffTarget
            return k

        zero_t, one_t = 0, index[target.from_int(1)]

        def combine(op, a):
            return dst.row(op, a).__getitem__

    n = len(payloads)
    img = [_UNSET] * n

    def image(i):
        k = img[i]
        if k is _UNSET:
            k = img[i] = image_of(payloads[i])
        return k

    def image_all():  # in the order row 0 of + asks for them
        for i, k in enumerate(img):
            if k is _UNSET:
                img[i] = image_of(payloads[i])

    def first_bad(op):
        # x is imaged before the row: x + 0 = x and x * 0 = 0 (index 0), so
        # this adds no image the pairwise order would not have asked for first
        for i in range(n):
            row, out = src.row(op, i), combine(op, image(i))
            if rows and list(map(img.__getitem__, row)) == list(map(out, img)):
                continue
            for j, s in enumerate(row):
                if image(s) != out(image(j)):
                    return i, j
        return None

    def holds(op, over):  # f(g op x) = f(g) op f(x) for every g in G and every x in over
        at = img.__getitem__
        for g in gens:
            row, out = src.row(op, g), combine(op, img[g])
            if list(map(at, map(row.__getitem__, over))) != list(map(out, map(at, over))):
                return False
        return True

    report = ValidationReport(subject=str(h))
    one = src.index[desc.from_int(1)]
    try:
        ok = image(0) == zero_t
        report.add("preserves_zero", ok, None if ok else (RingValue(desc, payloads[0]),), checked=1)
        rows = decide = ok
        ok = image(one) == one_t
        report.add("preserves_one", ok, None if ok else (RingValue(desc, payloads[one]),), checked=1)
        decide = decide and ok
        if rows and dst is not None:
            image_all()
        # a source past the cell bound is refused before its equations, the
        # index path's images computed first, as when the tables were built whole
        check_cells(str(desc), n)
        if decide:
            image_all()
            gens = [one, *map(src.index.__getitem__, desc.generators())]
        rows = rows and (dst is not None or decide)  # every image is computed
        for name, op, over in (("additive", "add", range(n)), ("multiplicative", "mul", decide and gens)):
            bad = None if decide and holds(op, over) else first_bad(op)
            decide = decide and bad is None  # * is decided on G only once + holds
            witness = None if bad is None else tuple(RingValue(desc, payloads[i]) for i in bad)
            report.add(name, bad is None, witness, checked=n * n)
    except TableIncomplete as exc:
        report.add("table_covers_source", False, (str(exc),))
    return report


def hom_injective(h: RingHom):
    """(verdict, witness) where verdict is True, False or None (unknown).

    Finite sources are settled exhaustively; infinite ones structurally,
    by the rule's ``injective``.  A False verdict comes with two colliding
    inputs when one is known.
    """
    if is_finite(h.source):
        pair = first_collision(functools.partial(hom_apply, h), enumerate_ring(h.source))
        return (True, None) if pair is None else (False, pair)
    return h.rule.injective(h)


def first_collision(image, inputs):
    """The first two inputs, in order, with equal images; None if there are none."""
    seen: dict = {}
    for v in inputs:
        img = image(v)
        if img in seen:
            return seen[img], v
        seen[img] = v
    return None
