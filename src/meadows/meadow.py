"""Total arithmetic synthesized from a directed lattice of rings.

Elements carry their node, the bottom node holds the absorbing error
element (written ``a``), and the binary operations land at the meet of the
two nodes after pushing both arguments down through the transition maps.
Division is total: an element inverts at the unique maximal node where its
image is a unit, and falls back to the error element.

The operations work on (node, payload) pairs, pushed down by each
transition's compiled map (``RingHom.fn``) and combined by the node's
descriptor; the public methods check membership, take that path and wrap
the result as one ``MeadowElement``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import rings
from .errors import (
    AmbiguousInverse,
    ForeignElement,
    InfiniteCarrier,
    InvalidLattice,
    NotAZero,
)
from .lattice import DirectedLattice, dl_validate, node_key


TABLE_OPS = ("add", "mul", "neg", "zero_of", "inverse")  # the tables of a CarrierIndex


@dataclass(frozen=True)
class MeadowElement:
    node: object
    value: rings.RingValue

    def __str__(self):
        if isinstance(self.value.ring, rings.Zero):
            return "a"
        return f"{rings.format_value(self.value)} @ {node_key(self.node)}"


@dataclass(frozen=True)
class InverseWitness:
    """Where an element's images become units, and the maximal such nodes."""

    element: MeadowElement
    support: frozenset
    maximal: frozenset


class PreMeadow:
    """Carrier and total operations, without any inverse guarantee."""

    def __init__(self, dl: DirectedLattice):
        self.dl = dl
        self.lattice = dl.lattice
        self._nodes = frozenset(self.lattice.nodes)
        self._elements: list[MeadowElement] | None = None
        self._index: CarrierIndex | None = None

    # -- construction helpers -------------------------------------------------

    def element(self, node, raw) -> MeadowElement:
        if node not in self.lattice.nodes:
            raise ForeignElement(f"{node!r} is not a node of this structure")
        return MeadowElement(node, rings.ring_value(self.dl.ring_at[node], raw))

    def numeral(self, n: int) -> MeadowElement:
        return self._wrap(self._numeral(n))

    @property
    def a(self) -> MeadowElement:
        bottom = self.lattice.bottom
        return MeadowElement(bottom, rings.RingValue(rings.ZERO, rings.TOK))

    @property
    def zero(self) -> MeadowElement:
        return self.numeral(0)

    @property
    def one(self) -> MeadowElement:
        return self.numeral(1)

    def contains(self, x) -> bool:
        if not isinstance(x, MeadowElement) or x.node not in self._nodes:
            return False
        ring, desc = x.value.ring, self.dl.ring_at[x.node]
        return ring is desc or ring == desc

    def _pair(self, x) -> tuple:
        """(node, payload) of a member; anything else is a ForeignElement."""
        if not self.contains(x):
            raise ForeignElement(f"{x} does not belong to this structure")
        return x.node, x.value.payload

    def _wrap(self, pair) -> MeadowElement:
        node, payload = pair
        return MeadowElement(node, rings.RingValue(self.dl.ring_at[node], payload))

    # -- carrier ---------------------------------------------------------------

    def is_finite(self) -> bool:
        return self.dl.is_finite()

    def elements(self) -> list[MeadowElement]:
        """The full carrier in deterministic order; finite only."""
        if self._elements is None:
            if not self.is_finite():
                raise InfiniteCarrier("carrier is infinite")
            out = []
            for node in self.lattice.nodes:
                for v in rings.enumerate_ring(self.dl.ring_at[node]):
                    out.append(MeadowElement(node, v))
            self._elements = out
        return list(self._elements)

    def size(self) -> int:
        return len(self.elements())

    def probe_pool(self) -> list[MeadowElement]:
        """Fixed probe elements: the carrier when finite, else each node's
        ``rings.sample_pool``, in node order."""
        if self.is_finite():
            return self.elements()
        return [
            MeadowElement(node, v)
            for node in self.lattice.nodes
            for v in rings.sample_pool(self.dl.ring_at[node])
        ]

    # -- the element path on (node, payload) pairs of members -----------------

    def _numeral(self, n: int) -> tuple:
        top = self.lattice.top
        return top, self.dl.ring_at[top].from_int(n)

    def _meet(self, x, y) -> tuple:
        """(k, p, q): the meet k of the two nodes and both payloads pushed to it."""
        (i, p), (j, q) = x, y
        k = self.lattice.meet(i, j)
        if i != k:
            p = self.dl.transition(i, k).fn(p)
        if j != k:
            q = self.dl.transition(j, k).fn(q)
        return k, p, q

    def _add(self, x, y) -> tuple:
        k, p, q = self._meet(x, y)
        return k, self.dl.ring_at[k].add(p, q)

    def _mul(self, x, y) -> tuple:
        k, p, q = self._meet(x, y)
        return k, self.dl.ring_at[k].mul(p, q)

    def _neg(self, x) -> tuple:
        node, p = x
        return node, self.dl.ring_at[node].neg(p)

    def _zero_of(self, x) -> tuple:
        node = x[0]
        return node, self.dl.ring_at[node].from_int(0)

    # -- operations --------------------------------------------------------------

    def add(self, x: MeadowElement, y: MeadowElement) -> MeadowElement:
        return self._wrap(self._add(self._pair(x), self._pair(y)))

    def mul(self, x: MeadowElement, y: MeadowElement) -> MeadowElement:
        return self._wrap(self._mul(self._pair(x), self._pair(y)))

    def neg(self, x: MeadowElement) -> MeadowElement:
        return self._wrap(self._neg(self._pair(x)))

    def sub(self, x: MeadowElement, y: MeadowElement) -> MeadowElement:
        return self.add(x, self.neg(y))

    def zero_of(self, x: MeadowElement) -> MeadowElement:
        """The zero of the component containing x (not globally zero)."""
        return self._wrap(self._zero_of(self._pair(x)))

    def component_zero(self, node) -> MeadowElement:
        return MeadowElement(node, rings.zero_value(self.dl.ring_at[node]))

    def zeros_leq(self, z: MeadowElement, z2: MeadowElement) -> bool:
        """Order on component zeros: z <= z2 iff z * z2 = z."""
        for arg in (z, z2):
            if arg != self.zero_of(arg):
                raise NotAZero(f"{arg} is not a component zero")
        return self.mul(z, z2) == z

    # -- finite operation tables ----------------------------------------------

    def freeze_tables(self) -> "CarrierIndex":
        """The index view of the finite carrier, built once."""
        if self._index is None:
            self._index = CarrierIndex(self)
        return self._index

    @functools.cached_property
    def lazy_index(self) -> "LazyIndex":
        """The index of the elements met so far, built once and grown on use."""
        return LazyIndex(self)

    def operation_table(self, op: str) -> dict:
        """Explicit table for add, mul, neg, zero_of or inverse; finite only."""
        ix = self.freeze_tables()
        if op not in TABLE_OPS:
            raise ValueError(f"unknown operation {op!r}")
        elems, table = ix.elements, getattr(ix, op)
        if op in ("add", "mul"):
            return {
                (x, y): elems[k] for x, row in zip(elems, table) for y, k in zip(elems, row)
            }
        return {x: elems[k] for x, k in zip(elems, table)}


class CarrierIndex:
    """Index view of a finite carrier: ``elements[i]`` is element i.

    ``add`` and ``mul`` are N x N tables of element indices, ``neg``,
    ``zero_of`` and ``inverse`` are length-N lists (``inverse`` needs a
    meadow).  Each table is built the first time it is read, and a binary
    one past ``rings.TABLE_CELL_LIMIT`` cells is refused.  ``key`` and
    ``element`` map an element to its index and back, as a ``LazyIndex``
    does, and ``pool`` is every index.  The binary
    tables are assembled from the ring tables (``rings.FiniteTables``, one
    per distinct ring) at the meet nodes and the transition maps as index
    lists, so every entry is what the element operation returns.
    """

    def __init__(self, m: PreMeadow):
        self.meadow = m
        self.elements = m.elements()
        self.position = {x: i for i, x in enumerate(self.elements)}
        self._start: dict = {}  # node -> index of its first element
        self._values: dict = {}  # node -> ring values in carrier order
        for i, x in enumerate(self.elements):
            self._start.setdefault(x.node, i)
            self._values.setdefault(x.node, []).append(x.value)
        tables: dict = {}  # ring -> its FiniteTables, shared by the nodes carrying it
        self._rings = {}  # node -> the FiniteTables of its ring
        for n in self._values:
            desc = m.dl.ring_at[n]
            if desc not in tables:
                tables[desc] = rings.FiniteTables(desc)
            self._rings[n] = tables[desc]
        self._pushes: dict = {}
        self.pool = range(len(self.elements))

    def key(self, x: MeadowElement) -> int:
        return self.position[x]

    def element(self, k: int) -> MeadowElement:
        return self.elements[k]

    def _push(self, i, k) -> list[int]:
        """Local index at node k of the image of each value at node i."""
        key = (i, k)
        if key not in self._pushes:
            fn, local = self.meadow.dl.transition(i, k).fn, self._rings[k].index
            self._pushes[key] = [local[fn(v.payload)] for v in self._values[i]]
        return self._pushes[key]

    def _locate(self, pair) -> int:
        """Index of the element given as a (node, payload) pair."""
        node, payload = pair
        return self._start[node] + self._rings[node].index[payload]

    def span(self, node) -> range:
        """Indices of the elements at ``node``."""
        start = self._start[node]
        return range(start, start + len(self._values[node]))

    def transition(self, i, k) -> list[int]:
        """Index of the image at node k of each element at node i, in span order."""
        start = self._start[k]
        return [start + p for p in self._push(i, k)]

    def _binary(self, op: str) -> list[list[int]]:
        rings.check_cells("the carrier", len(self.elements))
        meet = self.meadow.lattice.meet
        rows = []
        for i in self._values:
            blocks = []
            for j in self._values:
                k = meet(i, j)
                table = getattr(self._rings[k], op)
                blocks.append((self._push(i, k), self._push(j, k), table, self._start[k]))
            for a in range(len(self._values[i])):
                row = []
                for left, right, table, start in blocks:
                    images = table[left[a]]
                    row += [start + images[b] for b in right]
                rows.append(row)
        return rows

    def _unary(self, pair_fn) -> list[int]:
        return [self._locate(pair_fn((x.node, x.value.payload))) for x in self.elements]

    @functools.cached_property
    def add(self) -> list[list[int]]:
        return self._binary("add")

    @functools.cached_property
    def mul(self) -> list[list[int]]:
        return self._binary("mul")

    @functools.cached_property
    def neg(self) -> list[int]:
        return self._unary(self.meadow._neg)

    @functools.cached_property
    def zero_of(self) -> list[int]:
        return self._unary(self.meadow._zero_of)

    @functools.cached_property
    def inverse(self) -> list[int]:
        return self._unary(self.meadow._inverse)


class _Memo(dict):
    """A table whose entry for a key is ``fn(key)``, computed the first time it is read."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class LazyIndex:
    """Index view of the elements met so far, numbered as they are met.

    ``elements[i]`` is the (node, payload) pair of element i, ``position``
    maps a pair back to i, and ``pool`` is the probe pool's indices in
    ``probe_pool()`` order.  The tables are read like a ``CarrierIndex``'s,
    but each entry is the meadow's pair operation, computed the first time
    it is read; an uncertified inverse raises ``AmbiguousInverse`` there
    and stores nothing.  The index lives as long as the meadow and holds
    every element and entry its readers have met.
    """

    def __init__(self, m: PreMeadow):
        self.meadow = m
        self.elements: list[tuple] = []
        self.position: dict = {}
        pair, number = self.elements.__getitem__, self._number
        self.add = _Memo(lambda x: _Memo(lambda y: number(m._add(pair(x), pair(y)))))
        self.mul = _Memo(lambda x: _Memo(lambda y: number(m._mul(pair(x), pair(y)))))
        self.neg = _Memo(lambda x: number(m._neg(pair(x))))
        self.zero_of = _Memo(lambda x: number(m._zero_of(pair(x))))
        self.inverse = _Memo(lambda x: number(m._inverse(pair(x))))  # a pre-meadow has none: fails when read
        self.pool = [number(m._pair(x)) for x in m.probe_pool()]

    def _number(self, pair) -> int:
        k = self.position.get(pair)
        if k is None:
            k = self.position[pair] = len(self.elements)
            self.elements.append(pair)
        return k

    def key(self, x: MeadowElement) -> int:
        return self._number(self.meadow._pair(x))

    def element(self, k: int) -> MeadowElement:
        return self.meadow._wrap(self.elements[k])


class Meadow(PreMeadow):
    """A pre-meadow whose inverse is certified (or checked per call)."""

    def __init__(self, dl: DirectedLattice, status: str):
        super().__init__(dl)
        self.status = status  # "verified" (finite, exhaustive) or "lazy"

    def _units(self, x) -> dict:
        """node -> image of the pair x there, for each node below x where it is a unit."""
        node, p = x
        ring_at, transition = self.dl.ring_at, self.dl.transition
        units = {}
        for j in self.lattice.down_set(node):
            q = p if j == node else transition(node, j).fn(p)
            if ring_at[j].is_unit(q):
                units[j] = q
        return units

    def _inverse(self, x) -> tuple:
        units = self._units(x)
        maximal = self.lattice.maximal(units)
        if len(maximal) != 1:
            raise AmbiguousInverse(self._wrap(x), maximal)
        (j,) = maximal
        return j, self.dl.ring_at[j].inverse(units[j])

    def inverse_witness(self, x: MeadowElement) -> InverseWitness:
        """Nodes below x at which its image becomes a unit."""
        units = self._units(self._pair(x))
        return InverseWitness(x, frozenset(units), self.lattice.maximal(units))

    def inverse(self, x: MeadowElement) -> MeadowElement:
        return self._wrap(self._inverse(self._pair(x)))

    def div(self, x: MeadowElement, y: MeadowElement) -> MeadowElement:
        return self.mul(x, self.inverse(y))

    def decompose(self) -> "Decomposition":
        """Split into component rings plus transition tables built from +.

        The transitions are recovered from the meadow's own addition
        (x maps to x + z), not read off the source lattice, so a rebuild
        genuinely round-trips the operations.
        """
        elems_by_node = {}
        for x in self.elements():
            elems_by_node.setdefault(x.node, []).append(x)
        zeros = {node: self.component_zero(node) for node in self.lattice.nodes}
        # recover the node order from multiplication of component zeros
        order = [
            (n1, n2)
            for n1, n2 in itertools.product(self.lattice.nodes, repeat=2)
            if n1 != n2 and self.mul(zeros[n1], zeros[n2]) == zeros[n1]
        ]
        transitions = {}
        for lo, up in order:
            pairs = []
            for x in elems_by_node[up]:
                moved = self.add(x, zeros[lo])
                pairs.append((x.value, moved.value))
            transitions[(lo, up)] = rings.table_hom(
                self.dl.ring_at[up], self.dl.ring_at[lo], pairs
            )
        components = {
            node: (self.dl.ring_at[node], tuple(v.value for v in elems_by_node[node]))
            for node in self.lattice.nodes
        }
        return Decomposition(components=components, order=tuple(order), transitions=transitions)


@dataclass
class Decomposition:
    """Component rings indexed by node, with +-derived transition tables."""

    components: dict
    order: tuple[tuple, ...]
    transitions: dict

    def to_directed_lattice(self) -> DirectedLattice:
        from .lattice import Lattice

        nodes = list(self.components)
        lat = Lattice(nodes, self.order)
        ring_at = {n: d for n, (d, _carrier) in self.components.items()}
        edge_homs = {
            (up, lo): self.transitions[(lo, up)]
            for up, lo in lat.covers()
            if (lo, up) in self.transitions
        }
        return DirectedLattice(lat, ring_at, edge_homs)


def build_premeadow(dl: DirectedLattice, validate: bool = True) -> PreMeadow:
    """Total structure from any directed lattice; no inverse certification."""
    if validate:
        dl_validate(dl).raise_if_failed(InvalidLattice)
    return PreMeadow(dl)


def _verify_inverses(pre: Meadow, probes) -> None:
    for x in probes:
        w = pre.inverse_witness(x)
        if len(w.maximal) != 1:
            raise AmbiguousInverse(x, w.maximal)


def build_meadow(dl: DirectedLattice, mode: str = "verify") -> Meadow:
    """Build and, in verify mode, certify unique invertibility.

    Finite carriers are certified exhaustively (status "verified").  On an
    infinite carrier, verify mode probes the fixed sample pool of every
    component and the result stays "lazy": each later inverse call
    re-checks its own element.  Lazy mode skips the upfront scan entirely.
    """
    if mode not in ("verify", "lazy"):
        raise ValueError(f"unknown mode {mode!r}")
    dl_validate(dl).raise_if_failed(InvalidLattice)
    if mode == "lazy":
        return Meadow(dl, status="lazy")
    m = Meadow(dl, status="verified" if dl.is_finite() else "lazy")
    _verify_inverses(m, m.probe_pool())
    return m
