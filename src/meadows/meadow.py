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

import bisect
import functools
import itertools
import operator
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
        self._plans = dl._plans
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

    # _add and _mul push both payloads to the meet by the node pair's plan
    # (``DirectedLattice._meet_plan``), read with one lookup once it is cached

    def _add(self, x, y) -> tuple:
        (i, p), (j, q) = x, y
        k, f, g, ring = self._plans.get((i, j)) or self.dl._meet_plan(i, j)
        return k, ring.add(p if f is None else f(p), q if g is None else g(q))

    def _mul(self, x, y) -> tuple:
        (i, p), (j, q) = x, y
        k, f, g, ring = self._plans.get((i, j)) or self.dl._meet_plan(i, j)
        return k, ring.mul(p if f is None else f(p), q if g is None else g(q))

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

    Elements are numbered node by node, in node order, each node's in its
    ring's payload order (``rings.FiniteTables``): element i of node n has
    index start(n) + i, where start(n) counts the elements of the nodes
    before n.  ``add`` and ``mul`` are N x N tables of element indices,
    ``neg``, ``zero_of`` and ``inverse`` are length-N lists (``inverse``
    needs a meadow).  Each table is built the first time it is read, and a
    binary one past ``rings.TABLE_CELL_LIMIT`` cells is refused.  ``key``
    and ``element`` map an element to its index and back, as a
    ``LazyIndex`` does, and ``pool`` is every index; neither builds
    ``elements`` or ``position``, which are built when first read.
    ``constants`` holds the index of each closed term a law scan located.

    The tables are read off the ring tables through push lists: the
    ring-local index at node k of the image of each element of node i.
    Row x of ``add`` (or ``mul``) runs over the nodes j, and at each takes
    the ring table's row at the meet k of x's node and j, indexed by x's
    push to k, gathered at the pushes of j's elements to k.  Inverses come
    from each ring's inverse list, read through the same push lists: x
    inverts at the maximal nodes below it where its push is a unit.
    So every entry is what the element operation returns.
    """

    def __init__(self, m: PreMeadow):
        if not m.is_finite():
            raise InfiniteCarrier("carrier is infinite")
        self.meadow = m
        self._rings: dict = {}  # node -> the FiniteTables of its ring, the lattice's own
        self._start: dict = {}  # node -> index of its first element
        size = 0
        for n in m.lattice.nodes:
            self._rings[n] = m.dl.tables(m.dl.ring_at[n])
            self._start[n] = size
            size += len(self._rings[n].payloads)
        self._nodes, self._starts = list(self._start), list(self._start.values())
        self._pushes: dict = {}
        self.pool = range(size)
        self.constants: dict = {}  # closed term -> its index, filled by the law scans

    @functools.cached_property
    def elements(self) -> list[MeadowElement]:
        return self.meadow.elements()

    @functools.cached_property
    def position(self) -> dict:
        return {x: i for i, x in enumerate(self.elements)}

    def key(self, x: MeadowElement) -> int:
        node, payload = self.meadow._pair(x)
        return self._start[node] + self._rings[node].index[payload]

    def element(self, k: int) -> MeadowElement:
        node = self._nodes[bisect.bisect_right(self._starts, k) - 1]
        return self.meadow._wrap((node, self._rings[node].payloads[k - self._start[node]]))

    def _push(self, i, k) -> tuple:
        """(push list, gather) from node i to node k below it: the local
        index at k of the image of each element of i, and ``_gather`` of it."""
        got = self._pushes.get((i, k))
        if got is None:
            payloads = self._rings[i].payloads
            if i == k:
                got = range(len(payloads)), None
            else:
                fn, local = self.meadow.dl.transition(i, k).fn, self._rings[k].index
                images = [local[fn(p)] for p in payloads]
                got = images, _gather(images)
            self._pushes[(i, k)] = got
        return got

    @functools.cached_property
    def _plan(self) -> list[list[tuple]]:
        """Per node i, its blocks: for each node j in turn, the meet k of i
        and j, the push list of i to k, and the gather that picks the pushes
        of j's elements to k out of a row of k's table (None when j is k).
        Shared by ``add`` and ``mul``."""
        meet, push = self.meadow.lattice.meet, self._push
        plan = []
        for i in self._nodes:
            blocks = []
            for j in self._nodes:
                k = meet(i, j)
                blocks.append((k, push(i, k)[0], push(j, k)[1]))
            plan.append(blocks)
        return plan

    def _binary(self, op: str) -> list[list[int]]:
        rings.check_cells("the carrier", len(self.pool))
        plan, shifted = self._plan, {}  # node -> its ring's table, offset by the node's start
        for k in self._nodes:
            start, table = self._start[k], getattr(self._rings[k], op)
            shifted[k] = table if start == 0 else [[start + c for c in row] for row in table]
        rows: list = []
        for blocks in plan:
            # row x of node i chains, over the nodes j, the gathered row of
            # the meet's table at x's push: one C-level pass per block
            pieces = []
            for k, left, gather in blocks:
                cut = map(shifted[k].__getitem__, left)
                pieces.append(cut if gather is None else map(gather, cut))
            rows += map(list, map(itertools.chain, *pieces))
        return rows

    @functools.cached_property
    def add(self) -> list[list[int]]:
        return self._binary("add")

    @functools.cached_property
    def mul(self) -> list[list[int]]:
        return self._binary("mul")

    @functools.cached_property
    def neg(self) -> list[int]:
        return [self._start[n] + b for n, t in self._rings.items() for b in t.neg]

    @functools.cached_property
    def zero_of(self) -> list[int]:
        # a ring's zero is its element 0, so each node's zero is its first element
        return [self._start[n] for n, t in self._rings.items() for _ in t.payloads]

    @functools.cached_property
    def inverse(self) -> list[int]:
        inverse_of = self.meadow._inverse  # a pre-meadow has none: fails here
        try:
            return self._inverses()
        except AmbiguousInverse:
            raise
        except Exception:
            # whatever a push list met, the element path, element by element in
            # carrier order, raises its own first error (or builds this table)
            pairs = ((n, p) for n, t in self._rings.items() for p in t.payloads)
            return [self.key(self.meadow._wrap(inverse_of(x))) for x in pairs]

    def _inverses(self) -> list[int]:
        """Node by node.  Column j holds, for each element, the local index
        at node j of the inverse of its push there, None where that is not
        a unit.  The maximal nodes of each distinct set of unit columns are
        found once, at its first element in carrier order, where an
        ambiguous one raises."""
        lattice = self.meadow.lattice
        out: list = []
        for i, t in self._rings.items():
            down = lattice.down_set(i)
            below = [j for j in self._nodes if j in down]
            columns = [list(map(self._rings[j].inverse.__getitem__, self._push(i, j)[0])) for j in below]
            own, nones = below.index(i), [None] * len(below)
            tops: dict = {}  # which columns are units -> (start of the node it inverts at, its column)
            for a, row in enumerate(zip(*columns)):
                units = tuple(map(operator.is_not, row, nones))
                top = tops.get(units)
                if top is None:
                    # a unit at its own node inverts there when the order has no cycle
                    # through i; one unit column is its own maximal node on any order
                    if units[own] and lattice._antisymmetric:
                        c = own
                    elif units.count(True) == 1:
                        c = units.index(True)
                    else:
                        found = lattice.maximal(itertools.compress(below, units))
                        if len(found) != 1:
                            raise AmbiguousInverse(self.meadow._wrap((i, t.payloads[a])), found)
                        c = below.index(*found)
                    top = tops[units] = self._start[below[c]], c
                out.append(top[0] + row[top[1]])
        return out


def _gather(indices: list[int]) -> operator.itemgetter:
    """``row -> [row[b] for b in indices]`` as one C-level call returning a
    sequence, for a single index too."""
    if len(indices) == 1:
        return operator.itemgetter(slice(indices[0], indices[0] + 1))
    return operator.itemgetter(*indices)


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
        self.constants: dict = {}  # closed term -> its index, filled by the law scans

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

    def _unit_stops(self, x) -> dict:
        """node -> image of the pair x there, for each node where a walk down
        the covers from x's node stops: the node itself if x is a unit
        there, else the first node on each branch at which its image is a
        unit.  These nodes lie among ``_units(x)``, and each maximal node of
        ``_units(x)`` is one of them (no node above it on a cover path down
        to it is a unit node), so both sets have the same maximal nodes, on
        any data.

        A lattice validated on exact data is path independent, so the image
        at a node j reached from c is the one at c pushed along the cover
        edge (c, j): one edge push per node visited.  On sampled data the
        image is x's own ``transition`` to j, since a sample proves no path
        independence."""
        node, p = x
        dl = self.dl
        ring_at = dl.ring_at
        if ring_at[node].is_unit(p):
            return {node: p}
        lowers, edges, exact = self.lattice.cover_lowers, dl.edge_homs, dl._exact
        stops, seen = {}, {node}
        todo = [(node, j, p) for j in lowers(node)]  # (c, j, image at c): j a cover lower of c
        while todo:
            c, j, q = todo.pop()
            if j in seen:
                continue
            seen.add(j)
            q = edges[c, j].fn(q) if exact else dl.transition(node, j).fn(p)
            if ring_at[j].is_unit(q):
                stops[j] = q
            else:
                todo += [(j, k, q) for k in lowers(j)]
        return stops

    def _inverse(self, x) -> tuple:
        # The descent and the scan find the same maximal unit nodes, and the
        # descent pushes x only down to them.  An unvalidated lattice may
        # hold broken edges below those nodes, which a counterexample search
        # must see: it is scanned, so the first push below x that fails raises.
        units = self._unit_stops(x) if self.dl.validated() else self._units(x)
        if len(units) == 1:  # a single unit node is its own maximal node
            ((j, q),) = units.items()
        else:
            maximal = self.lattice.maximal(units)
            if len(maximal) != 1:
                raise AmbiguousInverse(self._wrap(x), maximal)
            (j,) = maximal
            q = units[j]
        return j, self.dl.ring_at[j].inverse(q)

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


def build_premeadow(dl: DirectedLattice) -> PreMeadow:
    """Total structure from a valid directed lattice; no inverse certification."""
    dl_validate(dl).raise_if_failed(InvalidLattice)
    return PreMeadow(dl)


def _verify_inverses(m: Meadow) -> None:
    """Raise ``AmbiguousInverse`` at the first probe, in ``probe_pool()``
    order, whose image is a unit at more than one maximal node below it.

    A probe at a node whose down-set is a chain is not walked: its unit
    nodes lie in that chain, and the bottom's zero ring makes them a
    non-empty set, so they have one maximal node.  Every other probe is
    walked as a (node, payload) pair; an element is built only for the
    error.

    On exact data (``checked_exactly`` over the covers) the lattice is path
    independent, so, by the argument of ``Meadow._unit_stops``, the
    maximal unit nodes of p at node n are n when p is a unit there, else
    the maximal nodes of the union of those of p's pushes along the cover
    edges out of n.  One memo, shared by the whole pool, holds that set
    for each (node, payload) a descent meets below the top, so a build
    pushes each payload along each cover edge at most once.  The top's
    probes are no descent's image and leave no entry, so the memo grows
    with the rings below the top, not with the top's carrier.  The descent
    keeps its own stack: a lattice may be taller than the recursion limit.

    On sampled data a sample proves no path independence, so each probe
    keeps its own descent through ``transition`` (``Meadow._unit_stops``),
    and nothing is shared between probes.

    Every node's payloads are listed before the first probe, a chain
    node's too, so a finite ring too large to list is refused at load
    wherever it sits in the order.
    """
    lattice, dl = m.lattice, m.dl
    # every node's probe payloads first, a finite ring's from the lattice's tables
    pools = []
    for node in lattice.nodes:
        desc = dl.ring_at[node]
        pools.append((node, dl.tables(desc).payloads if desc.finite else desc.sample()))
    maximal_units = _memo_descent(dl) if dl._exact else _probe_descent(m)
    for node, payloads in pools:
        if lattice._chain[node]:
            continue
        for p in payloads:
            tops = maximal_units(node, p)
            if len(tops) != 1:
                raise AmbiguousInverse(m._wrap((node, p)), tops)


def _probe_descent(m: Meadow):
    """(node, payload) -> its maximal unit nodes, by the probe's own descent."""

    def maximal_units(node, p):
        stops = m._unit_stops((node, p))
        return stops.keys() if len(stops) == 1 else m.lattice.maximal(stops)

    return maximal_units


def _memo_descent(dl: DirectedLattice):
    """(node, payload) -> its maximal unit nodes, by a descent of the cover
    edges on exact data that reads and fills one memo; see ``_verify_inverses``."""
    lattice, ring_at, edges = dl.lattice, dl.ring_at, dl.edge_homs
    top, maximal, lowers = lattice.top, lattice.maximal, lattice._cover_lowers
    # node -> its ring's is_unit, itself as a node set, and its cover edges'
    # (lower, compiled map), read as the descent first meets the node
    at = _Memo(lambda n: (ring_at[n].is_unit, frozenset((n,)), [(c, edges[n, c].fn) for c in lowers[n]]))
    joined = _Memo(lambda sets: maximal(frozenset().union(*sets)))  # node sets -> their union's maximal nodes
    memo: dict = {}  # (node, payload) -> its maximal unit nodes

    def maximal_units(node, p):
        # a frame is a pair and, once its pushes are made, the pairs they
        # reached; it is finished when all of those are in the memo
        stack = [((node, p), None)]
        while stack:
            key, below = stack.pop()
            if below is None:
                if key in memo:
                    continue
                n, q = key
                is_unit, alone, steps = at[n]
                if is_unit(q):
                    memo[key] = alone
                    continue
                below = [(c, fn(q)) for c, fn in steps]
                missing = [(k, None) for k in below if k not in memo]
                if missing:
                    stack.append((key, below))
                    stack += missing
                    continue
            found = {memo[k] for k in below}
            memo[key] = found.pop() if len(found) == 1 else joined[frozenset(found)]
        return memo.pop((node, p)) if node == top else memo[node, p]

    return maximal_units


def build_meadow(dl: DirectedLattice, mode: str = "verify") -> Meadow:
    """Build and, in verify mode, certify unique invertibility.

    Finite carriers are certified exhaustively (status "verified").  On an
    infinite carrier, verify mode probes the fixed sample pool of every
    component and the result stays "lazy": each later inverse call
    re-checks its own element.  Lazy mode skips the upfront scan entirely.
    Certification (``_verify_inverses``) lists every node's payloads, so a
    ring too large to list is refused here, then walks the probes as
    (node, payload) pairs, none at a node whose down-set is a chain; on
    exact data one memo of maximal unit nodes, shared by all probes, lets
    each payload cross each cover edge at most once.  It builds no
    carrier: ``elements()`` is left for the first caller that reads it.
    """
    if mode not in ("verify", "lazy"):
        raise ValueError(f"unknown mode {mode!r}")
    dl_validate(dl).raise_if_failed(InvalidLattice)
    if mode == "lazy":
        return Meadow(dl, status="lazy")
    m = Meadow(dl, status="verified" if dl.is_finite() else "lazy")
    _verify_inverses(m)
    return m
