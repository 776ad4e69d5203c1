"""Exact arithmetic for a closed family of unital commutative rings.

Descriptors name the rings, values carry canonical payloads (so value
equality is structural equality), and homs are small rule objects that can
be applied and validated exactly.  Everything is immutable.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DescriptorMismatch,
    InfiniteCarrier,
    NotAUnit,
    TableIncomplete,
)
from .report import ValidationReport

# ---------------------------------------------------------------------------
# descriptors


class RingDescriptor:
    """Base marker for the closed descriptor family."""

    __slots__ = ()


@dataclass(frozen=True)
class Integers(RingDescriptor):
    def __str__(self):
        return "Z"


@dataclass(frozen=True)
class Rationals(RingDescriptor):
    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class Mod(RingDescriptor):
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError("modulus must be an integer >= 2; the one-element ring is Zero")

    def __str__(self):
        return f"Z{self.n}"


@dataclass(frozen=True)
class Poly(RingDescriptor):
    base: RingDescriptor
    var: str = "x"

    def __post_init__(self):
        if not is_field_descriptor(self.base):
            raise ValueError("polynomial coefficients must come from Q or Z_p with p prime")

    def __str__(self):
        return f"{self.base}[{self.var}]"


@dataclass(frozen=True)
class Product(RingDescriptor):
    factors: tuple[RingDescriptor, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        if any(isinstance(f, Zero) for f in factors):
            raise ValueError("product factors may not include the zero ring")

    def __str__(self):
        return "(" + " x ".join(str(f) for f in self.factors) + ")"


@dataclass(frozen=True)
class Zero(RingDescriptor):
    def __str__(self):
        return "0-ring"


Z = Integers()
Q = Rationals()
ZERO = Zero()

#: payload of the unique zero-ring element
TOK = None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_field_descriptor(desc: RingDescriptor) -> bool:
    """Structural field test used by the descriptor invariants."""
    return isinstance(desc, Rationals) or (isinstance(desc, Mod) and _is_prime(desc.n))


def is_finite(desc: RingDescriptor) -> bool:
    if isinstance(desc, (Zero, Mod)):
        return True
    if isinstance(desc, Product):
        return all(is_finite(f) for f in desc.factors)
    return False


def ring_size(desc: RingDescriptor) -> int:
    """Number of elements; raises for infinite carriers."""
    if isinstance(desc, Zero):
        return 1
    if isinstance(desc, Mod):
        return desc.n
    if isinstance(desc, Product):
        size = 1
        for f in desc.factors:
            size *= ring_size(f)
        return size
    raise InfiniteCarrier(f"{desc} is infinite")


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
    if isinstance(desc, Integers):
        if isinstance(raw, Fraction):
            if raw.denominator != 1:
                raise ValueError(f"{raw} is not an integer")
            raw = raw.numerator
        if not isinstance(raw, int):
            raise ValueError(f"bad integer payload {raw!r}")
        return raw
    if isinstance(desc, Rationals):
        if isinstance(raw, str):
            return Fraction(raw)
        return Fraction(raw)
    if isinstance(desc, Mod):
        if not isinstance(raw, int):
            raise ValueError(f"bad residue payload {raw!r}")
        return raw % desc.n
    if isinstance(desc, Poly):
        coeffs = [_canon_payload(desc.base, c) for c in raw]
        zero = _canon_payload(desc.base, 0)
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        return tuple(coeffs)
    if isinstance(desc, Product):
        items = tuple(raw)
        if len(items) != len(desc.factors):
            raise ValueError(f"expected {len(desc.factors)} coordinates, got {len(items)}")
        return tuple(ring_value(f, it) for f, it in zip(desc.factors, items))
    if isinstance(desc, Zero):
        return TOK
    raise ValueError(f"unknown descriptor {desc!r}")


def ring_value(desc: RingDescriptor, raw) -> RingValue:
    """Coerce raw data into the canonical element of ``desc``."""
    if isinstance(raw, RingValue):
        if raw.ring != desc:
            raise DescriptorMismatch(f"{raw} is not in {desc}")
        return raw
    return RingValue(desc, _canon_payload(desc, raw))


def zero_value(desc: RingDescriptor) -> RingValue:
    return from_int(desc, 0)


def one_value(desc: RingDescriptor) -> RingValue:
    return from_int(desc, 1)


def from_int(desc: RingDescriptor, m: int) -> RingValue:
    """The canonical image of the integer ``m``, i.e. m times the unit."""
    if isinstance(desc, Integers):
        return RingValue(desc, m)
    if isinstance(desc, Rationals):
        return RingValue(desc, Fraction(m))
    if isinstance(desc, Mod):
        return RingValue(desc, m % desc.n)
    if isinstance(desc, Poly):
        return ring_value(desc, [from_int(desc.base, m).payload])
    if isinstance(desc, Product):
        return RingValue(desc, tuple(from_int(f, m) for f in desc.factors))
    if isinstance(desc, Zero):
        return RingValue(desc, TOK)
    raise ValueError(f"unknown descriptor {desc!r}")


def _require_same(desc: RingDescriptor, *values: RingValue) -> None:
    for v in values:
        if not isinstance(v, RingValue) or (v.ring is not desc and v.ring != desc):
            raise DescriptorMismatch(f"{v} does not belong to {desc}")


def _base_ops(base: RingDescriptor):
    """(zero, add, mul, neg) on raw coefficient payloads of a field base."""
    if isinstance(base, Rationals):
        return Fraction(0), lambda x, y: x + y, lambda x, y: x * y, lambda x: -x
    n = base.n
    return 0, lambda x, y: (x + y) % n, lambda x, y: (x * y) % n, lambda x: (-x) % n


def add(a: RingValue, b: RingValue) -> RingValue:
    desc = a.ring
    _require_same(desc, a, b)
    if isinstance(desc, (Integers, Rationals)):
        return RingValue(desc, a.payload + b.payload)
    if isinstance(desc, Mod):
        return RingValue(desc, (a.payload + b.payload) % desc.n)
    if isinstance(desc, Poly):
        zero, badd, _, _ = _base_ops(desc.base)
        pa, pb = a.payload, b.payload
        out = [badd(x, y) for x, y in itertools.zip_longest(pa, pb, fillvalue=zero)]
        while out and out[-1] == zero:
            out.pop()
        return RingValue(desc, tuple(out))
    if isinstance(desc, Product):
        return RingValue(desc, tuple(add(x, y) for x, y in zip(a.payload, b.payload)))
    return RingValue(desc, TOK)


def mul(a: RingValue, b: RingValue) -> RingValue:
    desc = a.ring
    _require_same(desc, a, b)
    if isinstance(desc, (Integers, Rationals)):
        return RingValue(desc, a.payload * b.payload)
    if isinstance(desc, Mod):
        return RingValue(desc, (a.payload * b.payload) % desc.n)
    if isinstance(desc, Poly):
        zero, badd, bmul, _ = _base_ops(desc.base)
        pa, pb = a.payload, b.payload
        if not pa or not pb:
            return RingValue(desc, ())
        out = [zero] * (len(pa) + len(pb) - 1)
        for i, x in enumerate(pa):
            for j, y in enumerate(pb):
                out[i + j] = badd(out[i + j], bmul(x, y))
        while out and out[-1] == zero:
            out.pop()
        return RingValue(desc, tuple(out))
    if isinstance(desc, Product):
        return RingValue(desc, tuple(mul(x, y) for x, y in zip(a.payload, b.payload)))
    return RingValue(desc, TOK)


def neg(a: RingValue) -> RingValue:
    desc = a.ring
    _require_same(desc, a)
    if isinstance(desc, (Integers, Rationals)):
        return RingValue(desc, -a.payload)
    if isinstance(desc, Mod):
        return RingValue(desc, (-a.payload) % desc.n)
    if isinstance(desc, Poly):
        _, _, _, bneg = _base_ops(desc.base)
        return RingValue(desc, tuple(bneg(c) for c in a.payload))
    if isinstance(desc, Product):
        return RingValue(desc, tuple(neg(x) for x in a.payload))
    return RingValue(desc, TOK)


def sub(a: RingValue, b: RingValue) -> RingValue:
    return add(a, neg(b))


def is_unit(v: RingValue) -> bool:
    """True iff the element has a multiplicative inverse in its ring."""
    desc = v.ring
    if isinstance(desc, Integers):
        return v.payload in (1, -1)
    if isinstance(desc, Rationals):
        return v.payload != 0
    if isinstance(desc, Mod):
        return math.gcd(v.payload, desc.n) == 1
    if isinstance(desc, Poly):
        # field coefficients, so units are exactly the nonzero constants
        return len(v.payload) == 1
    if isinstance(desc, Product):
        return all(is_unit(x) for x in v.payload)
    return True  # the zero ring: its element equals 1


def unit_inverse(v: RingValue) -> RingValue:
    desc = v.ring
    if not is_unit(v):
        raise NotAUnit(f"{v} has no inverse in {desc}")
    if isinstance(desc, Integers):
        return v
    if isinstance(desc, Rationals):
        return RingValue(desc, 1 / v.payload)
    if isinstance(desc, Mod):
        return RingValue(desc, pow(v.payload, -1, desc.n))
    if isinstance(desc, Poly):
        c = ring_value(desc.base, v.payload[0])
        return RingValue(desc, (unit_inverse(c).payload,))
    if isinstance(desc, Product):
        return RingValue(desc, tuple(unit_inverse(x) for x in v.payload))
    return RingValue(desc, TOK)


def enumerate_ring(desc: RingDescriptor) -> list[RingValue]:
    """All elements, once each, in a deterministic order."""
    if isinstance(desc, Zero):
        return [RingValue(desc, TOK)]
    if isinstance(desc, Mod):
        return [RingValue(desc, r) for r in range(desc.n)]
    if isinstance(desc, Product):
        pools = [enumerate_ring(f) for f in desc.factors]
        return [RingValue(desc, combo) for combo in itertools.product(*pools)]
    raise InfiniteCarrier(f"{desc} cannot be enumerated")


class FiniteTables:
    """A finite ring numbered 0..N-1 in ``enumerate_ring`` order.

    ``elements[i]`` is element i and ``position`` maps each element back to
    i; ``add`` and ``mul`` are N x N tables of element indices, each built
    the first time it is read.  A product's order is mixed radix with the
    last factor fastest, so its tables combine the factor tables with
    integer arithmetic alone.
    """

    def __init__(self, desc: RingDescriptor):
        self.desc = desc
        if isinstance(desc, Product):
            self._factors = [FiniteTables(f) for f in desc.factors]
            pools = [f.elements for f in self._factors]
            self.elements = [RingValue(desc, combo) for combo in itertools.product(*pools)]
        else:
            self._factors = []
            self.elements = enumerate_ring(desc)

    @functools.cached_property
    def position(self) -> dict:
        return {v: i for i, v in enumerate(self.elements)}

    @functools.cached_property
    def add(self) -> list[list[int]]:
        return self._table("add")

    @functools.cached_property
    def mul(self) -> list[list[int]]:
        return self._table("mul")

    def _table(self, name: str) -> list[list[int]]:
        if isinstance(self.desc, Mod):
            n, op = self.desc.n, getattr(operator, name)
            return [[op(i, j) % n for j in range(n)] for i in range(n)]
        table = [[0]]  # the zero ring, and the empty product
        for f in self._factors:
            q = len(f.elements)
            table = [
                [x + y for x in shifted for y in row]
                for shifted in ([x * q for x in left] for left in table)
                for row in getattr(f, name)
            ]
        return table


def is_field(desc: RingDescriptor) -> bool:
    """Exact field test: exhaustive unit scan on finite rings."""
    if isinstance(desc, Rationals):
        return True
    if is_finite(desc):
        elems = enumerate_ring(desc)
        if len(elems) < 2:
            return False
        zero = zero_value(desc)
        return all(is_unit(v) for v in elems if v != zero)
    return False


def sample_pool(desc: RingDescriptor) -> list[RingValue]:
    """Fixed deterministic probe set; the full carrier when finite."""
    if is_finite(desc):
        return enumerate_ring(desc)
    if isinstance(desc, Integers):
        return [RingValue(desc, k) for k in range(-3, 4)]
    if isinstance(desc, Rationals):
        ints = [Fraction(k) for k in range(-3, 4)]
        extra = [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3)]
        return [RingValue(desc, f) for f in ints + extra]
    if isinstance(desc, Poly):
        consts = [ring_value(desc, [c.payload]) for c in sample_pool(desc.base)]
        x = ring_value(desc, [zero_value(desc.base).payload, one_value(desc.base).payload])
        x_plus_1 = add(x, one_value(desc))
        return consts + [x, x_plus_1]
    if isinstance(desc, Product):
        pools = [sample_pool(f) for f in desc.factors]
        combos = itertools.islice(itertools.product(*pools), 64)
        return [RingValue(desc, combo) for combo in combos]
    raise ValueError(f"unknown descriptor {desc!r}")


def random_value(desc: RingDescriptor, rng: random.Random) -> RingValue:
    if isinstance(desc, Integers):
        return RingValue(desc, rng.randrange(-50, 51))
    if isinstance(desc, Rationals):
        return RingValue(desc, Fraction(rng.randrange(-30, 31), rng.randrange(1, 12)))
    if isinstance(desc, Mod):
        return RingValue(desc, rng.randrange(desc.n))
    if isinstance(desc, Poly):
        deg = rng.randrange(0, 4)
        coeffs = [random_value(desc.base, rng).payload for _ in range(deg + 1)]
        return ring_value(desc, coeffs)
    if isinstance(desc, Product):
        return RingValue(desc, tuple(random_value(f, rng) for f in desc.factors))
    return RingValue(desc, TOK)


def format_value(v: RingValue) -> str:
    desc = v.ring
    if isinstance(desc, Zero):
        return "a"
    if isinstance(desc, (Integers, Mod)):
        return str(v.payload)
    if isinstance(desc, Rationals):
        return str(v.payload)
    if isinstance(desc, Product):
        return "(" + ", ".join(format_value(x) for x in v.payload) + ")"
    # polynomial, ascending powers
    if not v.payload:
        return "0"
    var = desc.var
    parts = []
    for k, c in enumerate(v.payload):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}"
            power = var if k == 1 else f"{var}^{k}"
            parts.append(f"{head}{power}" if head else power)
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# ring homomorphisms


class HomRule:
    __slots__ = ()


@dataclass(frozen=True)
class Identity(HomRule):
    pass


@dataclass(frozen=True)
class IncludeRationals(HomRule):
    pass


@dataclass(frozen=True)
class ReduceIntMod(HomRule):
    """Z -> Z_n, canonical reduction; n lives in the target descriptor."""


@dataclass(frozen=True)
class ReduceModDiv(HomRule):
    """Z_n -> Z_m with m dividing n."""


@dataclass(frozen=True)
class UnitMap(HomRule):
    """Z -> R, m maps to m times the unit of R."""


@dataclass(frozen=True)
class PolyEvalAt(HomRule):
    point: RingValue  # element of the coefficient field


@dataclass(frozen=True)
class ConstantEmbed(HomRule):
    """R -> R[x] as constant polynomials."""


@dataclass(frozen=True)
class Project(HomRule):
    index: int


@dataclass(frozen=True)
class PairRule(HomRule):
    components: tuple["RingHom", ...]


@dataclass(frozen=True)
class TableRule(HomRule):
    graph: tuple[tuple[RingValue, RingValue], ...]
    # input -> output; on duplicate inputs the first graph entry wins
    lookup: dict = field(init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        lookup: dict = {}
        for vin, vout in self.graph:
            lookup.setdefault(vin, vout)
        object.__setattr__(self, "lookup", lookup)


@dataclass(frozen=True)
class ComposeRule(HomRule):
    stages: tuple["RingHom", ...]  # applied left to right


@dataclass(frozen=True)
class Collapse(HomRule):
    """The unique map into the zero ring."""


@dataclass(frozen=True)
class RingHom:
    source: RingDescriptor
    target: RingDescriptor
    rule: HomRule

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
    if not 0 <= index < len(prod.factors):
        raise ValueError(f"no factor {index} in {prod}")
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
    graph = tuple(
        sorted(
            ((ring_value(source, i), ring_value(target, o)) for i, o in pairs),
            key=lambda p: repr(p[0]),
        )
    )
    return RingHom(source, target, TableRule(graph))


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
    rule = h.rule
    if isinstance(rule, Identity):
        return v
    if isinstance(rule, IncludeRationals):
        return RingValue(Q, Fraction(v.payload))
    if isinstance(rule, (ReduceIntMod, ReduceModDiv)):
        return RingValue(h.target, v.payload % h.target.n)
    if isinstance(rule, UnitMap):
        return from_int(h.target, v.payload)
    if isinstance(rule, PolyEvalAt):
        acc = zero_value(h.target)
        for c in reversed(v.payload):
            acc = add(mul(acc, rule.point), ring_value(h.target, c))
        return acc
    if isinstance(rule, ConstantEmbed):
        return ring_value(h.target, [v.payload])
    if isinstance(rule, Project):
        return v.payload[rule.index]
    if isinstance(rule, PairRule):
        return RingValue(h.target, tuple(hom_apply(c, v) for c in rule.components))
    if isinstance(rule, TableRule):
        try:
            return rule.lookup[v]
        except KeyError:
            raise TableIncomplete(f"no table entry for {v}") from None
    if isinstance(rule, ComposeRule):
        out = v
        for stage in rule.stages:
            out = hom_apply(stage, out)
        return out
    if isinstance(rule, Collapse):
        return RingValue(ZERO, TOK)
    raise ValueError(f"unknown rule {rule!r}")


def _validation_inputs(desc: RingDescriptor, budget: int, seed: int):
    """(elements, pairs, exhaustive?) to probe an infinite ring with: a seeded sample."""
    gens = [zero_value(desc), one_value(desc), neg(one_value(desc))]
    if isinstance(desc, Poly):
        gens.append(ring_value(desc, [zero_value(desc.base).payload, one_value(desc.base).payload]))
    rng = random.Random(seed)
    extra = [random_value(desc, rng) for _ in range(budget)]
    elems = gens + extra
    pairs = list(itertools.product(gens, gens))
    pairs += [(random_value(desc, rng), random_value(desc, rng)) for _ in range(budget)]
    return elems, pairs, False


class _OffTarget(Exception):
    """An image that is not an element of the hom's finite target."""


def hom_validate(h: RingHom, budget: int = 64, seed: int = 0) -> ValidationReport:
    """Check 0, 1, + and * preservation; violations become report content.

    A finite source is checked on every pair, on its ``FiniteTables``: the
    hom is applied once per source element, and when the target is finite
    and no larger than the source each equation is a lookup in both rings'
    tables (a larger target's tables would cost more than the pairs they
    serve, so its images are added and multiplied as values).  An infinite
    source is probed with the seeded sample of ``_validation_inputs``
    (``budget`` random elements and pairs), element by element.
    """
    if is_finite(h.source):
        src = FiniteTables(h.source)
        if is_finite(h.target) and ring_size(h.target) <= len(src.elements):
            try:
                return _validate_on_index(h, src, src if h.target == h.source else FiniteTables(h.target))
            except _OffTarget:
                pass
        return _validate_on_index(h, src, None)
    elems, pairs, exhaustive = _validation_inputs(h.source, budget, seed)
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
        bad = None
        for x, y in pairs:
            if image(add(x, y)) != add(image(x), image(y)):
                bad = (x, y)
                break
        report.add("additive", bad is None, bad, checked=len(pairs), sampled=not exhaustive)
        bad = None
        for x, y in pairs:
            if image(mul(x, y)) != mul(image(x), image(y)):
                bad = (x, y)
                break
        report.add("multiplicative", bad is None, bad, checked=len(pairs), sampled=not exhaustive)
    except TableIncomplete as exc:
        report.add("table_covers_source", False, (str(exc),))
    return report


def _validate_on_index(h: RingHom, src: FiniteTables, dst: FiniteTables | None) -> ValidationReport:
    """hom_validate on a finite source, pairs in ``itertools.product`` order.

    Images are indices into ``dst`` when it is given (an image outside it
    raises ``_OffTarget``), else target values combined with ``add``/``mul``.
    Each image is computed on first use, in the order the element-by-element
    check asks for them, so a missing table entry fails at the same pair.
    """
    elems = src.elements
    if dst is None:
        image_of = functools.partial(hom_apply, h)
        zero_t, one_t = zero_value(h.target), one_value(h.target)
    else:

        def image_of(x):
            k = dst.position.get(hom_apply(h, x))
            if k is None:
                raise _OffTarget
            return k

        zero_t, one_t = 0, dst.position[one_value(h.target)]
    img: list = [None] * len(elems)

    def image(i):
        k = img[i]
        if k is None:
            k = img[i] = image_of(elems[i])
        return k

    def first_bad(src_table, dst_table, op):
        # x is imaged before the row: x + 0 = x and x * 0 = 0 (index 0), so
        # this adds no image the pairwise order would not have asked for first
        for i, row in enumerate(src_table):
            a = image(i)
            out = dst_table[a].__getitem__ if dst_table is not None else functools.partial(op, a)
            for j, s in enumerate(row):
                if image(s) != out(image(j)):
                    return elems[i], elems[j]
        return None

    report = ValidationReport(subject=str(h))
    zero, one = elems[0], one_value(h.source)
    try:
        ok = image(0) == zero_t
        report.add("preserves_zero", ok, None if ok else (zero,), checked=1)
        ok = image(src.position[one]) == one_t
        report.add("preserves_one", ok, None if ok else (one,), checked=1)
        for name, table, op in (("additive", "add", add), ("multiplicative", "mul", mul)):
            bad = first_bad(getattr(src, table), dst and getattr(dst, table), op)
            report.add(name, bad is None, bad, checked=len(elems) ** 2)
    except TableIncomplete as exc:
        report.add("table_covers_source", False, (str(exc),))
    return report


def _characteristic(desc: RingDescriptor) -> int | None:
    """Smallest k > 0 with k*1 = 0, or None for characteristic zero."""
    if isinstance(desc, (Integers, Rationals)):
        return None
    if isinstance(desc, Mod):
        return desc.n
    if isinstance(desc, Poly):
        return _characteristic(desc.base)
    if isinstance(desc, Product):
        chars = [_characteristic(f) for f in desc.factors]
        if any(c is None for c in chars):
            return None
        out = 1
        for c in chars:
            out = out * c // math.gcd(out, c)
        return out
    return 1


def hom_injective(h: RingHom):
    """(verdict, witness) where verdict is True, False or None (unknown).

    Finite sources are settled exhaustively; infinite ones structurally.
    A False verdict comes with two colliding inputs when one is known.
    """
    if is_finite(h.source):
        seen: dict[RingValue, RingValue] = {}
        for v in enumerate_ring(h.source):
            img = hom_apply(h, v)
            if img in seen:
                return False, (seen[img], v)
            seen[img] = v
        return True, None
    rule = h.rule
    if isinstance(rule, (Identity, IncludeRationals, ConstantEmbed)):
        return True, None
    if isinstance(rule, Collapse):
        return False, (zero_value(h.source), one_value(h.source))
    if isinstance(rule, (ReduceIntMod, ReduceModDiv)):
        n = h.target.n
        return False, (from_int(h.source, 0), from_int(h.source, n))
    if isinstance(rule, UnitMap):
        c = _characteristic(h.target)
        if c is None:
            return True, None
        return False, (from_int(h.source, 0), from_int(h.source, c))
    if isinstance(rule, PolyEvalAt):
        pt = rule.point
        const = ring_value(h.source, [pt.payload])
        linear = ring_value(h.source, [zero_value(h.source.base).payload, one_value(h.source.base).payload])
        return False, (const, linear)
    if isinstance(rule, Project):
        # injective iff no other coordinate can vary freely
        return len(h.source.factors) == 1, None
    if isinstance(rule, PairRule):
        for comp in rule.components:
            verdict, _ = hom_injective(comp)
            if verdict is True:
                return True, None
        if all(is_finite(c.target) for c in rule.components):
            # infinite source into a finite product: pigeonhole
            bound = 1
            for c in rule.components:
                bound *= ring_size(c.target)
            seen: dict[tuple, RingValue] = {}
            for k in range(bound + 1):
                v = from_int(h.source, k)
                img = tuple(hom_apply(c, v) for c in rule.components)
                if img in seen:
                    return False, (seen[img], v)
                seen[img] = v
        return None, None
    if isinstance(rule, ComposeRule):
        verdicts = [hom_injective(stage)[0] for stage in rule.stages]
        if all(v is True for v in verdicts):
            return True, None
        if any(is_finite(stage.target) for stage in rule.stages):
            return False, None
        return None, None
    return None, None
