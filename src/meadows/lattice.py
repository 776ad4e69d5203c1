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
    """Finite poset stored as a transitively closed relation."""

    def __init__(self, nodes, order):
        self._nodes = tuple(sorted(set(nodes), key=node_key))
        node_set = set(self._nodes)
        for lo, up in order:
            if lo not in node_set or up not in node_set:
                raise UnknownNode(f"order pair ({lo!r}, {up!r}) mentions an unknown node")
        leq = {(n, n) for n in self._nodes}
        leq.update((lo, up) for lo, up in order)
        changed = True
        while changed:
            changed = False
            for (a, b), (c, d) in itertools.product(tuple(leq), tuple(leq)):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
        self._leq = frozenset(leq)
        self._meet_cache: dict[tuple, object] = {}
        self._covers: tuple[tuple, ...] | None = None

    @property
    def nodes(self) -> tuple:
        return self._nodes

    def _check(self, *given) -> None:
        for n in given:
            if n not in self._nodes:
                raise UnknownNode(f"{n!r} is not a lattice node")

    def leq(self, a, b) -> bool:
        self._check(a, b)
        return (a, b) in self._leq

    def down_set(self, n) -> frozenset:
        self._check(n)
        return frozenset(m for m in self._nodes if (m, n) in self._leq)

    def maximal(self, subset) -> frozenset:
        """Elements of the subset not strictly below another element of it."""
        subset = list(subset)
        self._check(*subset)
        return frozenset(
            s for s in subset if not any(t != s and (s, t) in self._leq for t in subset)
        )

    def minimal(self, subset) -> frozenset:
        subset = list(subset)
        self._check(*subset)
        return frozenset(
            s for s in subset if not any(t != s and (t, s) in self._leq for t in subset)
        )

    def _glb(self, i, j):
        """Greatest lower bound, or None when missing or not unique."""
        lowers = self.down_set(i) & self.down_set(j)
        tops = self.maximal(lowers)
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
        tops = self.maximal(self._nodes)
        if len(tops) != 1:
            raise ValueError("lattice has no unique top")
        return next(iter(tops))

    @property
    def bottom(self):
        bots = self.minimal(self._nodes)
        if len(bots) != 1:
            raise ValueError("lattice has no unique bottom")
        return next(iter(bots))

    def covers(self) -> tuple[tuple, ...]:
        """(upper, lower) pairs with nothing strictly between."""
        if self._covers is None:
            out = []
            for lo, up in sorted(self._leq, key=lambda p: (node_key(p[1]), node_key(p[0]))):
                if lo == up:
                    continue
                between = any(
                    m != lo and m != up and (lo, m) in self._leq and (m, up) in self._leq
                    for m in self._nodes
                )
                if not between:
                    out.append((up, lo))
            self._covers = tuple(out)
        return self._covers

    def cover_lowers(self, n) -> tuple:
        return tuple(lo for up, lo in self.covers() if up == n)

    def is_chain(self) -> bool:
        return all(
            (a, b) in self._leq or (b, a) in self._leq
            for a, b in itertools.combinations(self._nodes, 2)
        )


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
        """The composite hom from the ring at i down to the ring at j."""
        self.lattice._check(i, j)
        if i == j:
            return rings.identity_hom(self.ring_at[i])
        if not self.lattice.leq(j, i):
            raise NotComparable(f"{j!r} is not below {i!r}")
        key = (i, j)
        if key not in self._transitions:
            steps = []
            current = i
            while current != j:
                nxt = min(
                    (lo for lo in self.lattice.cover_lowers(current) if self.lattice.leq(j, lo)),
                    key=node_key,
                )
                steps.append(self.edge_homs[(current, nxt)])
                current = nxt
            self._transitions[key] = rings.compose_homs(*steps)
        return self._transitions[key]

    def is_finite(self) -> bool:
        return all(rings.is_finite(d) for d in self.ring_at.values())

    def carrier_size(self) -> int:
        return sum(rings.ring_size(d) for d in self.ring_at.values())


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

    # path independence on every comparable triple i > j > k
    for i in L.nodes:
        for j in L.nodes:
            if j == i or not L.leq(j, i):
                continue
            for k in L.nodes:
                if k == j or not L.leq(k, j):
                    continue
                direct = dl.transition(i, k)
                via = rings.compose_homs(dl.transition(i, j), dl.transition(j, k))
                desc = dl.ring_at[i]
                if rings.is_finite(desc):
                    inputs = rings.enumerate_ring(desc)
                    exhaustive = True
                else:
                    inputs, _, exhaustive = rings._validation_inputs(desc, budget, seed)
                bad = next(
                    (x for x in inputs if rings.hom_apply(direct, x) != rings.hom_apply(via, x)),
                    None,
                )
                report.add(
                    f"path_independence({i}>{j}>{k})",
                    bad is None,
                    None if bad is None else (bad, rings.hom_apply(via, bad), rings.hom_apply(direct, bad)),
                    checked=len(inputs),
                    sampled=not exhaustive,
                )
    if report.ok:
        dl._passed[(budget, seed)] = report
    return report
