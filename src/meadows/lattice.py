"""Finite lattices and directed lattices of rings.

A lattice here is a finite poset with all binary meets, a unique top and a
unique bottom.  A directed lattice places a ring descriptor on every node
(the zero ring at the bottom) and a coherent ring hom on every covering
edge; transitions between comparable nodes are composed along covers.
"""

from __future__ import annotations

import itertools

from . import rings
from .errors import NotComparable, UnknownNode
from .report import ValidationReport


def node_key(node) -> str:
    return str(node)


class Lattice:
    """Finite poset stored as one down-set and one up-set per node."""

    def __init__(self, nodes, order):
        self._nodes = tuple(sorted(set(nodes), key=node_key))
        below = {n: {n} for n in self._nodes}
        for lo, up in order:
            if lo not in below or up not in below:
                raise UnknownNode(f"order pair ({lo!r}, {up!r}) mentions an unknown node")
            below[up].add(lo)
        for k in self._nodes:  # Warshall's closure: route every path through k
            for n in self._nodes:
                if k in below[n]:
                    below[n] |= below[k]
        above = {n: set() for n in self._nodes}
        for n, lows in below.items():
            for m in lows:
                above[m].add(n)
        self._below = {n: frozenset(s) for n, s in below.items()}
        self._above = {n: frozenset(s) for n, s in above.items()}
        self._cover_lowers = {
            n: tuple(sorted(self.maximal(self._below[n] - {n}), key=node_key)) for n in self._nodes
        }
        self._tops = self.maximal(self._nodes)
        self._bottoms = self.minimal(self._nodes)
        self._meet_cache: dict[tuple, object] = {}

    @property
    def nodes(self) -> tuple:
        return self._nodes

    def _check(self, *given) -> None:
        for n in given:
            if n not in self._below:
                raise UnknownNode(f"{n!r} is not a lattice node")

    def leq(self, a, b) -> bool:
        self._check(a, b)
        return a in self._below[b]

    def down_set(self, n) -> frozenset:
        self._check(n)
        return self._below[n]

    def maximal(self, subset) -> frozenset:
        """Elements of the subset not strictly below another element of it."""
        subset = frozenset(subset)
        self._check(*subset)
        return frozenset(s for s in subset if len(self._above[s] & subset) == 1)

    def minimal(self, subset) -> frozenset:
        subset = frozenset(subset)
        self._check(*subset)
        return frozenset(s for s in subset if len(self._below[s] & subset) == 1)

    def _glb(self, i, j):
        """Greatest lower bound, or None when missing or not unique."""
        tops = self.maximal(self._below[i] & self._below[j])
        if len(tops) == 1:
            return next(iter(tops))
        return None

    def meet(self, i, j):
        self._check(i, j)
        key = (i, j)
        if key not in self._meet_cache:
            self._meet_cache[key] = self._glb(i, j)
        got = self._meet_cache[key]
        if got is None:
            raise ValueError(f"nodes {i!r} and {j!r} have no meet")
        return got

    @property
    def top(self):
        if len(self._tops) != 1:
            raise ValueError("lattice has no unique top")
        return next(iter(self._tops))

    @property
    def bottom(self):
        if len(self._bottoms) != 1:
            raise ValueError("lattice has no unique bottom")
        return next(iter(self._bottoms))

    def covers(self) -> tuple[tuple, ...]:
        """(upper, lower) pairs with nothing strictly between."""
        return tuple((up, lo) for up in self._nodes for lo in self._cover_lowers[up])

    def cover_lowers(self, n) -> tuple:
        self._check(n)
        return self._cover_lowers[n]

    def is_chain(self) -> bool:
        return all(len(self._below[n] | self._above[n]) == len(self._nodes) for n in self._nodes)


def lattice_validate(L: Lattice) -> ValidationReport:
    """Order axioms, meet totality and unique top/bottom, with witnesses."""
    report = ValidationReport(subject="lattice")
    nodes = L.nodes
    bad = next(
        ((a, b) for a, b in itertools.combinations(nodes, 2) if L.leq(a, b) and L.leq(b, a)),
        None,
    )
    report.add("antisymmetric", bad is None, bad, checked=len(nodes) ** 2)
    tops = L.maximal(nodes)
    report.add("unique_top", len(tops) == 1, tuple(sorted(tops, key=node_key)))
    bots = L.minimal(nodes)
    report.add("unique_bottom", len(bots) == 1, tuple(sorted(bots, key=node_key)))
    bad = None
    for i, j in itertools.combinations_with_replacement(nodes, 2):
        if L._glb(i, j) is None:
            bad = (i, j)
            break
    report.add("meets_exist", bad is None, bad, checked=len(nodes) ** 2)
    return report


class DirectedLattice:
    """Rings on nodes, coherent homs on covering edges, zero ring at bottom.

    Edge homs are keyed by (upper, lower) covering pairs.  Edges into the
    bottom are synthesized automatically since the map into the zero ring
    is unique.
    """

    def __init__(self, lattice: Lattice, ring_at, edge_homs=None):
        self.lattice = lattice
        self.ring_at = dict(ring_at)
        homs = dict(edge_homs or {})
        try:
            bottom = lattice.bottom
        except ValueError:
            bottom = None
        for up, lo in lattice.covers():
            if lo == bottom and (up, lo) not in homs:
                homs[(up, lo)] = rings.collapse_hom(self.ring_at[up])
        self.edge_homs = homs
        self._transitions: dict[tuple, rings.RingHom] = {}
        self._passed: dict[tuple, ValidationReport] = {}  # (budget, seed) -> passing report

    def transition(self, i, j) -> rings.RingHom:
        """The composite hom from the ring at i down to the ring at j.

        The path follows, from each node, its first cover lower (by
        ``node_key``) above j; a transition is the first edge composed with
        the cached transition from that cover, and every transition computed
        on the way down is cached.
        """
        hom = self._transitions.get((i, j))
        if hom is not None:
            return hom
        self.lattice._check(i, j)
        if i == j:
            hom = self._transitions[(i, j)] = rings.identity_hom(self.ring_at[i])
            return hom
        if not self.lattice.leq(j, i):
            raise NotComparable(f"{j!r} is not below {i!r}")
        path = []  # (node, next) steps down to j, or to the first node with a cached transition
        current = i
        while current != j and (current, j) not in self._transitions:
            nxt = min(
                (lo for lo in self.lattice.cover_lowers(current) if self.lattice.leq(j, lo)),
                key=node_key,
            )
            path.append((current, nxt))
            current = nxt
        for current, nxt in reversed(path):
            edge = self.edge_homs[(current, nxt)]
            hom = rings.compose_homs(edge) if nxt == j else rings.compose_homs(edge, self._transitions[(nxt, j)])
            self._transitions[(current, j)] = hom
        return hom

    def is_finite(self) -> bool:
        return all(rings.is_finite(d) for d in self.ring_at.values())


def dl_validate(dl: DirectedLattice, budget: int = 64, seed: int = 0) -> ValidationReport:
    """Full coherence check of a directed lattice of rings.

    A passing report is kept on ``dl``: a directed lattice is not changed
    after construction (its transitions are cached on the same terms), so
    validating it again with the same budget and seed returns that report.
    """
    passed = dl._passed.get((budget, seed))
    if passed is not None:
        return passed
    report = ValidationReport(subject="directed lattice")
    report.absorb(lattice_validate(dl.lattice))
    if not report.ok:
        return report

    L = dl.lattice
    bottom = L.bottom
    missing = [n for n in L.nodes if n not in dl.ring_at]
    report.add("ring_on_every_node", not missing, tuple(missing))
    if missing:
        return report

    ok = isinstance(dl.ring_at[bottom], rings.Zero)
    report.add("bottom_is_zero_ring", ok, None if ok else (bottom, dl.ring_at[bottom]))
    bad = next(
        (n for n in L.nodes if n != bottom and isinstance(dl.ring_at[n], rings.Zero)),
        None,
    )
    report.add("non_bottom_rings_unital", bad is None, None if bad is None else (bad,))

    for up, lo in L.covers():
        hom = dl.edge_homs.get((up, lo))
        if hom is None:
            report.add(f"edge_hom({up}->{lo})", False, None, note="missing")
            continue
        if hom.source != dl.ring_at[up] or hom.target != dl.ring_at[lo]:
            report.add(f"edge_hom({up}->{lo})", False, (hom.source, hom.target), note="endpoint mismatch")
            continue
        sub = rings.hom_validate(hom, budget=budget, seed=seed)
        report.absorb(sub, prefix=f"edge({up}->{lo}).")
    if not report.ok:
        return report

    # path independence on every comparable triple i > j > k: the inputs at
    # i, and their images at each node below i, are computed once
    lower_of = {j: [k for k in L.nodes if k != j and L.leq(k, j)] for j in L.nodes}
    for i in L.nodes:
        inputs = None
        direct: dict = {}  # k -> images of the inputs under transition(i, k)
        for j in L.nodes:
            if j == i or not L.leq(j, i) or not lower_of[j]:
                continue
            if inputs is None:
                desc = dl.ring_at[i]
                finite = rings.is_finite(desc)
                if finite:
                    inputs = rings.enumerate_ring(desc)
                else:
                    inputs, _ = rings._validation_inputs(desc, budget, seed)
            to_j = dl.transition(i, j)
            at_j = [rings.hom_apply(to_j, x) for x in inputs]
            for k in lower_of[j]:
                if k not in direct:
                    to_k = dl.transition(i, k)
                    direct[k] = [rings.hom_apply(to_k, x) for x in inputs]
                step = dl.transition(j, k)
                bad = None
                for x, y, want in zip(inputs, at_j, direct[k]):
                    via = rings.hom_apply(step, y)
                    if via != want:
                        bad = (x, via, want)
                        break
                report.add(
                    f"path_independence({i}>{j}>{k})",
                    bad is None,
                    bad,
                    checked=len(inputs),
                    sampled=not finite,
                )
    if report.ok:
        dl._passed[(budget, seed)] = report
    return report
