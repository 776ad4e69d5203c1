"""Structure-preserving maps, ideals, quotients and the functor pair.

A meadow hom is stored as a lattice map plus one ring hom per node; the
elementwise map follows.  Ideals hold one spec per node, with its own behaviour,
so that infinite components (like nZ inside Z) stay representable.  Quotients map
component rings back into the closed descriptor family and return a
tagged result: a certified meadow when unique invertibility verifies, or
the bare pre-meadow otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import rings
from .errors import (
    AmbiguousInverse,
    CharacteristicMismatch,
    DescriptorMismatch,
    ForeignElement,
    IdealIsWhole,
    IdealNotKilled,
    InfiniteCarrier,
    NotAHomomorphism,
    NotAZero,
    NotLatticeHom,
    NotSurjective,
    SquareDoesNotCommute,
    TargetMismatch,
    Undecidable,
    UnitNotPreserved,
    ZeroRingInput,
)
from .lattice import DirectedLattice, Lattice, NodeProbes, checked_exactly
from .meadow import Meadow, MeadowElement, PreMeadow, build_meadow, build_premeadow
from .report import ValidationReport

# ---------------------------------------------------------------------------
# meadow homomorphisms


class MeadowHom:
    """Lattice map plus per-node ring homs; apply() is the element map."""

    def __init__(self, source: PreMeadow, target: PreMeadow, lattice_map: dict, ring_maps: dict):
        self.source = source
        self.target = target
        self.lattice_map = dict(lattice_map)
        self.ring_maps = dict(ring_maps)

    def apply(self, x: MeadowElement) -> MeadowElement:
        if not self.source.contains(x):
            raise ForeignElement(f"{x} is not in the source")
        return MeadowElement(
            self.lattice_map[x.node], rings.hom_apply(self.ring_maps[x.node], x.value)
        )

    def __str__(self):
        return f"meadow hom on {len(self.lattice_map)} nodes"


# the number of probe-pool pairs an infinite source's hom equations are checked on
_EQUATION_PAIRS = 256


def hom_build(src: PreMeadow, dst: PreMeadow, lattice_map: dict, ring_maps: dict) -> MeadowHom:
    """Validate and assemble a meadow hom.

    Checks, in order: node coverage, lattice hom laws (leq, meets, top and
    bottom), each ring map's endpoints and ring-hom laws (proved from its
    rule, else ``rings.hom_validate``), then the commuting squares, decided
    as ``dl_validate`` decides paths (``NodeProbes``): on each node ring's
    generators when the data is exact (both lattices passed ``dl_validate``
    and every cover edge and ring map is ``checked_exactly``), else on every
    element of a finite node and the fixed sample of an infinite one.  The
    hom equations are scanned, on the first pairs of the probe pool, only on
    an infinite source whose data is not exact.  Otherwise they follow: for
    x at i, y at j and k = i meet j, with g the ring maps, d the source
    transitions, D the target's and L the lattice map, f(x + y) =
    g_k(d_ik x + d_jk y) = g_k d_ik x + g_k d_jk y as g_k is additive,
    = D g_i x + D g_j y as the squares (i, k) and (j, k) commute,
    = f(x) + f(y) as L(k) = L(i) meet L(j); the same holds for *.  f(1) = 1
    on every source, from top -> top and the top ring map's
    ``preserves_one``, which is checked exactly.
    """
    L, Ldst = src.lattice, dst.lattice
    for n in L.nodes:
        if n not in lattice_map:
            raise NotLatticeHom(f"node {n!r} has no image")
        if n not in ring_maps:
            raise NotLatticeHom(f"node {n!r} has no ring map")
        if lattice_map[n] not in Ldst.nodes:
            raise NotLatticeHom(f"{n!r} maps to unknown node {lattice_map[n]!r}")

    # an order failure at (a, b) is also a meet failure there, and meets are
    # symmetric, so the first failing ordered pair has a no later than b
    for a, b in itertools.combinations_with_replacement(L.nodes, 2):
        if L.leq(a, b) and not Ldst.leq(lattice_map[a], lattice_map[b]):
            raise NotLatticeHom(f"order not preserved on ({a!r}, {b!r})")
        got = lattice_map[L.meet(a, b)]
        want = Ldst.meet(lattice_map[a], lattice_map[b])
        if got != want:
            raise NotLatticeHom(f"meet not preserved on ({a!r}, {b!r}): {got!r} != {want!r}")
    if lattice_map[L.top] != Ldst.top:
        raise NotLatticeHom("top must map to top")
    if lattice_map[L.bottom] != Ldst.bottom:
        raise NotLatticeHom("bottom must map to bottom")

    for z in L.nodes:
        h = ring_maps[z]
        if h.source != src.dl.ring_at[z] or h.target != dst.dl.ring_at[lattice_map[z]]:
            raise TargetMismatch(f"ring map at {z!r} has endpoints {h.source} -> {h.target}")
        sub = rings.hom_proof(h) or rings.hom_validate(h)
        if not sub.ok:
            names = [c.name for c in sub.failures()]
            if "preserves_one" in names:
                raise UnitNotPreserved(f"ring map at {z!r} does not fix 1")
            raise NotAHomomorphism(f"ring map at {z!r} fails: {sub.summary()}")

    exact = src.dl.validated() and dst.dl.validated() and checked_exactly(
        [ring_maps[z] for z in L.nodes] + [d.edge_homs[c] for d in (src.dl, dst.dl) for c in d.lattice.covers()]
    )
    for z in L.nodes:
        node = NodeProbes(src.dl.ring_at[z], exact)
        if not node.probes:  # exact data and a ring without generators
            continue
        map_here = ring_maps[z].fn
        for z2 in L.nodes:
            if z2 == z or not L.leq(z2, z):
                continue
            down, map_below = src.dl.transition(z, z2).fn, ring_maps[z2].fn
            image_down = dst.dl.transition(lattice_map[z], lattice_map[z2]).fn
            bad = node.first_difference(lambda p: map_below(down(p)), lambda p: image_down(map_here(p)))
            if bad is not None:
                raise SquareDoesNotCommute(z, z2, bad)

    f = MeadowHom(src, dst, lattice_map, ring_maps)
    if not (exact or src.is_finite()):
        pool = src.probe_pool()
        for x, y in itertools.islice(itertools.product(pool, pool), _EQUATION_PAIRS):
            if f.apply(src.add(x, y)) != dst.add(f.apply(x), f.apply(y)):
                raise NotAHomomorphism(f"additivity fails at ({x}, {y})")
            if f.apply(src.mul(x, y)) != dst.mul(f.apply(x), f.apply(y)):
                raise NotAHomomorphism(f"multiplicativity fails at ({x}, {y})")
    return f


def identity_hom(m: PreMeadow) -> MeadowHom:
    lattice_map = {n: n for n in m.lattice.nodes}
    ring_maps = {n: rings.identity_hom(m.dl.ring_at[n]) for n in m.lattice.nodes}
    return hom_build(m, m, lattice_map, ring_maps)


def hom_from_carrier_map(src: PreMeadow, dst: PreMeadow, mapping: dict) -> MeadowHom:
    """Lift an elementwise map on a finite carrier into a validated hom."""
    lattice_map = {}
    ring_maps = {}
    by_node: dict = {}
    for x in src.elements():
        by_node.setdefault(x.node, []).append(x)
    for z, elems in by_node.items():
        images = {mapping[x].node for x in elems}
        if len(images) != 1:
            raise NotLatticeHom(f"component at {z!r} is split across nodes {images}")
        lattice_map[z] = next(iter(images))
        pairs = [(x.value, mapping[x].value) for x in elems]
        ring_maps[z] = rings.table_hom(
            src.dl.ring_at[z], dst.dl.ring_at[lattice_map[z]], pairs
        )
    return hom_build(src, dst, lattice_map, ring_maps)


def hom_is_injective(f: MeadowHom):
    """(answer, witness): exhaustive on finite sources, structural otherwise.

    The witness is a colliding pair of nodes or of elements.  Raises
    Undecidable rather than guessing when a structural answer is unknown.
    """
    pair = rings.first_collision(f.lattice_map.__getitem__, f.lattice_map)
    if pair is not None:
        return False, pair
    if f.source.is_finite():
        pair = rings.first_collision(f.apply, f.source.elements())
        return (True, None) if pair is None else (False, pair)
    for z in f.source.lattice.nodes:
        verdict, witness = rings.hom_injective(f.ring_maps[z])
        if verdict is False:
            if witness is None:
                return False, None
            return False, (MeadowElement(z, witness[0]), MeadowElement(z, witness[1]))
        if verdict is None:
            raise Undecidable(f"injectivity of the ring map at {z!r} is not settled")
    return True, None


def kernel(f: MeadowHom, kind="R") -> frozenset:
    """Elements collapsing under f.

    kind "R": x with f(x) equal to its own component zero (an ideal).
    kind "a": x mapped onto the error element.
    kind ("at", z): preimage of one fixed component zero z of the target.
    """
    if not f.source.is_finite():
        raise InfiniteCarrier("explicit kernels need a finite source")
    if kind == "a":
        kind = ("at", f.target.a)
    if kind == "R":
        return frozenset(
            x for x in f.source.elements() if f.apply(x) == f.target.zero_of(f.apply(x))
        )
    tag, z = kind
    if tag != "at":
        raise ValueError(f"unknown kernel kind {kind!r}")
    if f.target.zero_of(z) != z:
        raise NotAZero(f"{z} is not a component zero of the target")
    return frozenset(x for x in f.source.elements() if f.apply(x) == z)


# ---------------------------------------------------------------------------
# ideals


class IdealSpec:
    """One node's ring ideal, with its behaviour against the node's ring ``desc``.

    ``bind`` gives the form ``MeadowIdeal`` holds, ``misfit`` (witness, note)
    when the spec cannot be an ideal of ``desc``.  Bound, it answers on raw
    payloads: ``contains``, ``probes`` (all members when ``desc`` is finite),
    ``members``, ``closure`` (check, witness or None) and ``projection``.
    """

    __slots__ = ()

    whole = False

    def bind(self, desc: rings.RingDescriptor) -> IdealSpec:
        return self

    def misfit(self, desc: rings.RingDescriptor):
        return None

    def closure(self, desc: rings.RingDescriptor) -> list:
        return []


@dataclass(frozen=True)
class ZeroIdeal(IdealSpec):
    def contains(self, desc, p) -> bool:
        return p == desc.from_int(0)

    def probes(self, desc) -> list:
        return [desc.from_int(0)]

    members = probes

    def projection(self, desc) -> rings.RingHom:
        return rings.identity_hom(desc)


@dataclass(frozen=True)
class WholeRing(IdealSpec):
    whole = True

    def contains(self, desc, p) -> bool:
        return True

    def probes(self, desc) -> list:
        return rings._pool(desc)

    def members(self, desc) -> list:
        return rings._listed(desc)


@dataclass(frozen=True)
class NZ(IdealSpec):
    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"nZ needs an integer n >= 1, not {self.n!r}")

    def bind(self, desc):
        return WholeRing() if self.n == 1 else self

    def misfit(self, desc):
        return None if isinstance(desc, rings.Integers) else ((self,), "nZ only applies to Z")

    def contains(self, desc, p) -> bool:
        return p % self.n == 0

    def probes(self, desc) -> list:
        return [desc.from_int(k * self.n) for k in range(-3, 4)]

    def members(self, desc):
        raise InfiniteCarrier("nZ has no finite member set")

    def projection(self, desc) -> rings.RingHom:
        return rings.reduce_mod(self.n)


@dataclass(frozen=True)
class FiniteSubset(IdealSpec):
    """An explicit subset, as ``RingValue``s.  Bound, it is the ring's
    ``ZeroIdeal`` or ``WholeRing``, a ``PayloadSet``, or, if it does not fit, itself."""

    values: frozenset

    def __post_init__(self):
        object.__setattr__(self, "values", frozenset(self.values))

    def bind(self, desc):
        fault = self.misfit(desc)
        # the values are canonical and fit desc: as many as desc has are all of it
        if fault is None and len(self.values) == desc.size():
            return WholeRing()
        if self.values == {rings.zero_value(desc)}:
            return ZeroIdeal()
        return self if fault else PayloadSet(dict.fromkeys(v.payload for v in self.values))

    def misfit(self, desc):
        if not rings.is_finite(desc):
            return (self,), "explicit subsets need a finite ring"
        bad = next((v for v in self.values if v.ring != desc), None)
        return None if bad is None else ((bad,), "value outside the component")

    def _unfit(self, desc, *args):
        raise DescriptorMismatch(f"{self} does not fit {desc}")

    contains = probes = members = projection = _unfit


@dataclass(frozen=True)
class PayloadSet(IdealSpec):
    """Raw payloads of a finite ring, as the keys of a dict: a set that keeps
    the order it was built in, the order the closure checks scan."""

    payloads: dict

    def contains(self, desc, p) -> bool:
        return p in self.payloads

    def probes(self, desc) -> list:
        return sorted(self.payloads, key=repr)

    def members(self, desc) -> dict:
        return self.payloads

    def closure(self, desc):
        S, elements = self.payloads, rings._listed(desc)

        def witness(*payloads):
            return tuple(rings.RingValue(desc, x) for x in payloads)

        return [
            ("closed_under_neg", next((witness(p) for p in S if desc.neg(p) not in S), None)),
            ("closed_under_add", next((witness(p, q) for p in S for q in S if desc.add(p, q) not in S), None)),
            ("absorbs_multiplication", next((witness(p, r) for p in S for r in elements if desc.mul(p, r) not in S), None)),
        ]

    def projection(self, desc) -> rings.RingHom:
        if isinstance(desc, rings.Mod):
            d = math.gcd(desc.n, *self.payloads)
            return rings.identity_hom(desc) if d == desc.n else rings.mod_to_mod(desc.n, d)
        # an ideal of a product is the product of its coordinate ideals
        parts = []
        for k, factor in enumerate(desc.factors):
            coord = PayloadSet(dict.fromkeys(p[k] for p in self.payloads))
            if len(coord.payloads) < factor.size():  # a whole factor collapses out of the product
                parts.append(rings.compose_homs(rings.project(desc, k), coord.projection(factor)))
        if not parts:
            raise IdealIsWhole("component ideal is the whole ring")
        return parts[0] if len(parts) == 1 else rings.pair_hom(parts)


@dataclass
class MeadowIdeal:
    """One ``IdealSpec`` per node, bound to its ring; a node left out holds the zero ideal."""

    meadow: PreMeadow
    ideal_at: dict

    def __post_init__(self):
        zero = ZeroIdeal()
        self._specs = {
            node: self.ideal_at.get(node, zero).bind(desc)
            for node, desc in self.meadow.dl.ring_at.items()
        }

    @classmethod
    def of_bound(cls, meadow: PreMeadow, specs: dict) -> MeadowIdeal:
        """The ideal of ``specs``, a bound spec at every node, taken as they are."""
        ideal = cls.__new__(cls)
        ideal.meadow, ideal.ideal_at, ideal._specs = meadow, specs, specs
        return ideal

    def spec_at(self, node) -> IdealSpec:
        """The bound spec: degenerate subsets fold into Zero or Whole."""
        return self._specs[node]

    def probe_members(self, node) -> list[rings.RingValue]:
        """Finite witness set; full membership for finite components."""
        desc = self.meadow.dl.ring_at[node]
        return [rings.RingValue(desc, p) for p in self._specs[node].probes(desc)]

    def members_by_node(self, node) -> frozenset:
        """Exact member set; finite components only."""
        desc = self.meadow.dl.ring_at[node]
        return frozenset(rings.RingValue(desc, p) for p in self._specs[node].members(desc))


def ideal_validate(ideal: MeadowIdeal) -> ValidationReport:
    """Per-node ideal axioms, plus transition closure across the lattice."""
    m = ideal.meadow
    L = m.lattice
    report = ValidationReport(subject="meadow ideal")

    bottom = L.bottom
    report.add("bottom_is_whole", ideal.spec_at(bottom).whole, (bottom,))

    for node in L.nodes:
        spec = ideal.spec_at(node)
        desc = m.dl.ring_at[node]
        fault = spec.misfit(desc)
        if fault is not None:
            report.add(f"kind_fits({node})", False, fault[0], note=fault[1])
            continue
        report.add(f"kind_fits({node})", True)

        zero = desc.from_int(0)
        if not spec.contains(desc, zero):
            report.add(f"contains_zero({node})", False, (rings.RingValue(desc, zero),))
            continue
        report.add(f"contains_zero({node})", True)

        for check, bad in spec.closure(desc):
            report.add(f"{check}({node})", bad is None, bad)

    if not report.ok:
        return report

    # a collapsed component forces everything below it to collapse
    for up in L.nodes:
        if not ideal.spec_at(up).whole:
            continue
        for lo in L.nodes:
            if lo != up and L.leq(lo, up) and not ideal.spec_at(lo).whole:
                report.add("whole_propagates_down", False, (up, lo))
    if report.ok:
        report.add("whole_propagates_down", True)

    for up in L.nodes:
        if up == bottom:  # nothing lies below it
            continue
        desc = m.dl.ring_at[up]
        probes = ideal.spec_at(up).probes(desc)
        sampled = not rings.is_finite(desc)
        for lo in L.nodes:
            if lo == up or not L.leq(lo, up):
                continue
            down, below, lo_desc = m.dl.transition(up, lo).fn, ideal.spec_at(lo), m.dl.ring_at[lo]
            bad = next(
                (rings.RingValue(desc, p) for p in probes if not below.contains(lo_desc, down(p))),
                None,
            )
            report.add(
                f"transition_closed({up}->{lo})",
                bad is None,
                None if bad is None else (bad,),
                checked=len(probes),
                sampled=sampled,
            )
    return report


def radical(m: PreMeadow) -> MeadowIdeal:
    """Smallest ideal whose quotient keeps only the top component."""
    top = m.lattice.top
    ideal_at = {
        node: (ZeroIdeal() if node == top else WholeRing()) for node in m.lattice.nodes
    }
    return MeadowIdeal(m, ideal_at)


# ---------------------------------------------------------------------------
# quotients


def _factor_through(proj: rings.RingHom, g: rings.RingHom) -> rings.RingHom:
    """h with h after proj equal to g, for canonical projections proj.

    h is a table hom out of ``proj.target``, and a table hom is checked on
    its source's N x N tables, so one past ``rings.TABLE_CELL_LIMIT`` cells
    is refused, with the same ``RingTooLarge``, before its table is built.
    """
    if isinstance(proj.rule, rings.Identity):
        return g
    if rings.is_finite(proj.source):
        elems = rings.enumerate_ring(proj.source)
        rings.check_cells(str(proj.target), rings.ring_size(proj.target))
        table: dict = {}
        for v in elems:
            key = rings.hom_apply(proj, v)
            img = rings.hom_apply(g, v)
            if key in table and table[key] != img:
                raise ValueError(f"map does not factor: {key} has two images")
            table[key] = img
        return rings.table_hom(proj.target, g.target, table.items())
    if isinstance(proj.rule, rings.ReduceIntMod):
        n = proj.target.n
        rings.check_cells(str(proj.target), n)
        pairs = [
            (rings.from_int(proj.target, r), rings.hom_apply(g, rings.from_int(proj.source, r)))
            for r in range(n)
        ]
        return rings.table_hom(proj.target, g.target, pairs)
    raise ValueError(f"cannot factor through {proj}")


@dataclass
class QuotientResult:
    quotient: PreMeadow
    collapsed: frozenset
    projection: MeadowHom
    is_meadow: bool


def quotient(m: PreMeadow, ideal: MeadowIdeal) -> QuotientResult:
    """Collapse an ideal: whole components land on the error element.

    The result is tagged ``is_meadow=True`` only when unique invertibility
    is certified (exhaustively on finite carriers, structurally for chain
    lattices); otherwise the quotient ships as a plain pre-meadow.
    """
    ideal_validate(ideal).raise_if_failed()
    L = m.lattice
    if ideal.spec_at(L.top).whole:
        raise IdealIsWhole("quotient by the whole structure is undefined")

    collapsed = frozenset(n for n in L.nodes if ideal.spec_at(n).whole)
    kept = [n for n in L.nodes if n not in collapsed]
    bottom = L.bottom

    qnodes = kept + [bottom]
    order = [(a, b) for a in kept for b in kept if a != b and L.leq(a, b)]
    order += [(bottom, k) for k in kept]
    qlat = Lattice(qnodes, order)

    projs = {z: ideal.spec_at(z).projection(m.dl.ring_at[z]) for z in kept}
    ring_at = {bottom: rings.ZERO, **{z: proj.target for z, proj in projs.items()}}

    edge_homs = {}
    for up, lo in qlat.covers():
        if lo == bottom:
            continue
        g = rings.compose_homs(m.dl.transition(up, lo), projs[lo])
        edge_homs[(up, lo)] = _factor_through(projs[up], g)
    qdl = DirectedLattice(qlat, ring_at, edge_homs)

    # a totally ordered support always has a unique maximal unit node
    certified = qdl.is_finite() or qlat.is_chain()
    try:
        structure = build_meadow(qdl, mode="verify") if certified else build_premeadow(qdl)
    except AmbiguousInverse:  # only a finite non-chain quotient gets here
        structure, certified = build_premeadow(qdl), False

    lattice_map = {n: (n if n in kept else bottom) for n in L.nodes}
    ring_maps = {
        n: (projs[n] if n in kept else rings.collapse_hom(m.dl.ring_at[n]))
        for n in L.nodes
    }
    rho = hom_build(m, structure, lattice_map, ring_maps)
    return QuotientResult(
        quotient=structure, collapsed=collapsed, projection=rho, is_meadow=certified
    )


def induced_hom(f: MeadowHom, ideal: MeadowIdeal) -> MeadowHom:
    """The unique map out of the quotient agreeing with f.

    Requires f to kill the ideal: every ideal member must land on its own
    component zero (checked on every probe member, exhaustively when the
    components are finite).
    """
    m = f.source
    for node in m.lattice.nodes:
        for v in ideal.probe_members(node):
            x = MeadowElement(node, v)
            if f.apply(x) != f.target.zero_of(f.apply(x)):
                raise IdealNotKilled(f"{x} maps to {f.apply(x)}, not a component zero")
    q = quotient(m, ideal)
    bottom = q.quotient.lattice.bottom
    lattice_map = {}
    ring_maps = {}
    for z in q.quotient.lattice.nodes:
        if z == bottom:
            lattice_map[z] = f.target.lattice.bottom
            ring_maps[z] = rings.identity_hom(rings.ZERO)
        else:
            lattice_map[z] = f.lattice_map[z]
            ring_maps[z] = _factor_through(q.projection.ring_maps[z], f.ring_maps[z])
    return hom_build(q.quotient, f.target, lattice_map, ring_maps)


# ---------------------------------------------------------------------------
# congruences


@dataclass
class CongruenceClasses:
    """Partition of a finite carrier under f(x) = f(y), with induced tables."""

    classes: tuple[frozenset, ...]
    class_of: dict
    add_table: dict
    mul_table: dict
    images: tuple  # images[i] is the target element the i-th class maps onto


def congruence_quotient(f: MeadowHom) -> CongruenceClasses:
    if not (f.source.is_finite() and f.target.is_finite()):
        raise InfiniteCarrier("congruence classes need finite carriers")
    src, dst = f.source.freeze_tables(), f.target.freeze_tables()
    # class i collects the preimage of target element i
    image = [dst.position.get(f.apply(x)) for x in src.elements]
    if set(image) != set(range(len(dst.elements))):
        raise NotSurjective("congruence quotients need a surjective hom")

    buckets: list[list[int]] = [[] for _ in dst.elements]
    for x, t in enumerate(image):
        buckets[t].append(x)
    classes = tuple(frozenset(src.elements[x] for x in b) for b in buckets)
    class_of = {x: t for x, t in zip(src.elements, image)}

    add_table: dict = {}
    mul_table: dict = {}
    for i, ci in enumerate(buckets):
        for j, cj in enumerate(buckets):
            adds = {image[src.add[x][y]] for x in ci for y in cj}
            muls = {image[src.mul[x][y]] for x in ci for y in cj}
            if len(adds) != 1 or len(muls) != 1:
                raise NotAHomomorphism(f"operations are not well defined on classes ({i}, {j})")
            add_table[(i, j)] = next(iter(adds))
            mul_table[(i, j)] = next(iter(muls))

    # the induced map on classes must mirror the target operations exactly
    for i, j in itertools.product(range(len(classes)), repeat=2):
        if add_table[(i, j)] != dst.add[i][j]:
            raise NotAHomomorphism("induced addition disagrees with the target")
        if mul_table[(i, j)] != dst.mul[i][j]:
            raise NotAHomomorphism("induced multiplication disagrees with the target")
    return CongruenceClasses(classes, class_of, add_table, mul_table, tuple(dst.elements))


# ---------------------------------------------------------------------------
# the functor pair and friends


def adjoin_error(desc: rings.RingDescriptor) -> Meadow:
    """The two-node structure: one ring on top of the error element."""
    if isinstance(desc, rings.Zero):
        raise ZeroRingInput("adjoining the error element to the zero ring is not allowed")
    lat = Lattice(["top", "a"], [("a", "top")])
    dl = DirectedLattice(lat, {"top": desc, "a": rings.ZERO})
    return build_meadow(dl, mode="verify")


def base_ring(m: PreMeadow) -> rings.RingDescriptor:
    return m.dl.ring_at[m.lattice.top]


def adjoin_error_hom(h: rings.RingHom) -> MeadowHom:
    """Functor action on ring homs: extend by fixing the error element."""
    src = adjoin_error(h.source)
    dst = adjoin_error(h.target)
    return hom_build(
        src,
        dst,
        {"top": "top", "a": "a"},
        {"top": h, "a": rings.identity_hom(rings.ZERO)},
    )


def base_ring_hom(f: MeadowHom) -> rings.RingHom:
    """Functor action on meadow homs: restrict to the top components."""
    return f.ring_maps[f.source.lattice.top]


def adjoint_transpose(h: rings.RingHom, m: PreMeadow) -> MeadowHom:
    """Turn a ring hom into the base ring into a meadow hom from R adjoin a."""
    if h.target != base_ring(m):
        raise TargetMismatch(f"hom lands in {h.target}, base ring is {base_ring(m)}")
    rings.hom_validate(h).raise_if_failed()
    src = adjoin_error(h.source)
    return hom_build(
        src,
        m,
        {"top": m.lattice.top, "a": m.lattice.bottom},
        {"top": h, "a": rings.identity_hom(rings.ZERO)},
    )


def initial_hom(m: PreMeadow) -> MeadowHom:
    """The unique map out of the integers-with-error structure."""
    src = adjoin_error(rings.Z)
    return hom_build(
        src,
        m,
        {"top": m.lattice.top, "a": m.lattice.bottom},
        {"top": rings.unit_map(base_ring(m)), "a": rings.identity_hom(rings.ZERO)},
    )


# ---------------------------------------------------------------------------
# products and gluing


def _pairwise_hom(src_desc, left: rings.RingHom, right: rings.RingHom):
    """Edge hom between product-lattice nodes whose source coordinates both live."""
    if isinstance(left.target, rings.Zero):
        # left coordinate collapses: the surviving data is the right coordinate
        return rings.compose_homs(rings.project(src_desc, 1), right)
    if isinstance(right.target, rings.Zero):
        return rings.compose_homs(rings.project(src_desc, 0), left)
    return rings.pair_hom(
        (
            rings.compose_homs(rings.project(src_desc, 0), left),
            rings.compose_homs(rings.project(src_desc, 1), right),
        )
    )


def meadow_product(m: Meadow, n: Meadow) -> Meadow:
    """Componentwise product; node pairs with a zero-ring coordinate survive
    as distinct nodes carrying the other coordinate's ring."""
    Lm, Ln = m.lattice, n.lattice
    bm, bn = Lm.bottom, Ln.bottom
    nodes = [(i, j) for i in Lm.nodes for j in Ln.nodes]
    order = [
        ((i, j), (i2, j2))
        for (i, j) in nodes
        for (i2, j2) in nodes
        if (i, j) != (i2, j2) and Lm.leq(i, i2) and Ln.leq(j, j2)
    ]
    lat = Lattice(nodes, order)

    def ring_of(i, j):
        ri, rj = m.dl.ring_at[i], n.dl.ring_at[j]
        zi, zj = isinstance(ri, rings.Zero), isinstance(rj, rings.Zero)
        if zi and zj:
            return rings.ZERO
        if zi:
            return rj
        if zj:
            return ri
        return rings.Product((ri, rj))

    ring_at = {(i, j): ring_of(i, j) for (i, j) in nodes}

    edge_homs = {}
    for (ui, uj), (li, lj) in lat.covers():
        if (li, lj) == (bm, bn):
            continue  # synthesized collapse
        src_desc = ring_at[(ui, uj)]
        zi = isinstance(m.dl.ring_at[ui], rings.Zero)
        zj = isinstance(n.dl.ring_at[uj], rings.Zero)
        if zi:
            edge_homs[((ui, uj), (li, lj))] = n.dl.transition(uj, lj)
        elif zj:
            edge_homs[((ui, uj), (li, lj))] = m.dl.transition(ui, li)
        else:
            edge_homs[((ui, uj), (li, lj))] = _pairwise_hom(
                src_desc, m.dl.transition(ui, li), n.dl.transition(uj, lj)
            )
    dl = DirectedLattice(lat, ring_at, edge_homs)
    return build_meadow(dl, mode="verify")


def product_projections(p: Meadow, m: Meadow, n: Meadow) -> tuple[MeadowHom, MeadowHom]:
    """The two coordinate maps out of a product built by meadow_product."""

    def build(axis: int, target: Meadow) -> MeadowHom:
        lattice_map = {}
        ring_maps = {}
        for (i, j) in p.lattice.nodes:
            mine = (i, j)[axis]
            other_ring = (n.dl.ring_at[j], m.dl.ring_at[i])[axis]
            own_ring = target.dl.ring_at[mine]
            lattice_map[(i, j)] = mine
            src_desc = p.dl.ring_at[(i, j)]
            if isinstance(own_ring, rings.Zero):
                ring_maps[(i, j)] = rings.collapse_hom(src_desc)
            elif isinstance(other_ring, rings.Zero):
                ring_maps[(i, j)] = rings.identity_hom(src_desc)
            else:
                ring_maps[(i, j)] = rings.project(src_desc, axis)
        return hom_build(p, target, lattice_map, ring_maps)

    return build(0, m), build(1, n)


def glue(m: Meadow, n: Meadow, p: int) -> Meadow:
    """Join two structures of characteristic p under a new Z_p top.

    Cross terms multiply and add to the error element because the only
    common lower node of the two branches is the bottom.
    """
    if not rings._is_prime(p):
        raise CharacteristicMismatch(f"{p} is not prime")
    for structure in (m, n):
        top_ring = base_ring(structure)
        if rings.from_int(top_ring, p) != rings.zero_value(top_ring):
            raise CharacteristicMismatch(f"{top_ring} does not have characteristic {p}")

    zp = rings.Mod(p)
    nodes = ["glue-top", "a"]
    order = []
    ring_at = {"glue-top": zp, "a": rings.ZERO}
    edge_homs = {}

    def graft(prefix: str, structure: Meadow):
        L = structure.lattice
        bottom = L.bottom
        rename = {
            node: ("a" if node == bottom else (prefix, node)) for node in L.nodes
        }
        for node in L.nodes:
            if node == bottom:
                continue
            nodes.append(rename[node])
            ring_at[rename[node]] = structure.dl.ring_at[node]
        for a, b in itertools.product(L.nodes, repeat=2):
            if a != b and L.leq(a, b):
                order.append((rename[a], rename[b]))
        order.append((rename[L.top], "glue-top"))
        for (up, lo), hom in structure.dl.edge_homs.items():
            if lo != bottom:
                edge_homs[(rename[up], rename[lo])] = hom
        top_ring = structure.dl.ring_at[L.top]
        pairs = [
            (rings.from_int(zp, k), rings.from_int(top_ring, k)) for k in range(p)
        ]
        edge_homs[("glue-top", rename[L.top])] = rings.table_hom(zp, top_ring, pairs)

    graft("m", m)
    graft("n", n)
    order.append(("a", "glue-top"))
    lat = Lattice(nodes, order)
    dl = DirectedLattice(lat, ring_at, edge_homs)
    return build_meadow(dl, mode="verify")
