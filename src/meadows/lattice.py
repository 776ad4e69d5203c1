"""Finite lattices and directed lattices of rings.

A lattice here is a finite poset with all binary meets, a unique top and a
unique bottom.  A directed lattice places a ring descriptor on every node
(the zero ring at the bottom) and a coherent ring hom on every covering
edge; transitions between comparable nodes are composed along covers.
"""

from __future__ import annotations

import itertools

from . import rings
from .errors import DescriptorMismatch, MissingEdgeHom, NotALattice, NotComparable, UnknownNode
from .report import CheckResult, ValidationReport


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
        # two nodes below each other have the same down-set
        self._antisymmetric = len(set(self._below.values())) == len(self._nodes)
        # whether each node's down-set is a chain: on an antisymmetric order,
        # when the node has at most one cover lower, whose down-set is a
        # chain (nodes met by down-set size, so each cover lower comes
        # first); an order with a cycle, which no lattice has, is checked
        # pair by pair
        self._chain: dict = {}
        if self._antisymmetric:
            for n in sorted(self._nodes, key=lambda n: len(self._below[n])):
                lows = self._cover_lowers[n]
                self._chain[n] = not lows or (len(lows) == 1 and self._chain[lows[0]])
        else:
            for n, down in self._below.items():
                self._chain[n] = all(down <= self._below[m] | self._above[m] for m in down)
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
        """Greatest lower bound, or None when missing or not unique.

        Every m in S = down(i) & down(j) has down(m) inside S, so in an
        antisymmetric order the meet is the one m of S with |down(m)| = |S|,
        the lower of the two when they are comparable.  On an order with a
        cycle the meet is the unique maximal element of S.
        """
        if self._antisymmetric:
            if j in self._below[i]:
                return j
            if i in self._below[j]:
                return i
            common = self._below[i] & self._below[j]
            size = len(common)
            return next((m for m in common if len(self._below[m]) == size), None)
        tops = self.maximal(self._below[i] & self._below[j])
        if len(tops) == 1:
            return next(iter(tops))
        return None

    def meet(self, i, j):
        try:
            got = self._meet_cache[(i, j)]
        except KeyError:
            self._check(i, j)  # only nodes reach the cache
            got = self._meet_cache[(i, j)] = self._glb(i, j)
        if got is None:
            raise NotALattice(f"nodes {i!r} and {j!r} have no meet")
        return got

    @property
    def top(self):
        if len(self._tops) != 1:
            raise NotALattice("lattice has no unique top")
        return next(iter(self._tops))

    @property
    def bottom(self):
        if len(self._bottoms) != 1:
            raise NotALattice("lattice has no unique bottom")
        return next(iter(self._bottoms))

    def covers(self) -> tuple[tuple, ...]:
        """(upper, lower) pairs with nothing strictly between."""
        return tuple((up, lo) for up in self._nodes for lo in self._cover_lowers[up])

    def cover_lowers(self, n) -> tuple:
        self._check(n)
        return self._cover_lowers[n]

    def is_chain(self) -> bool:
        """True when some node lies above every node and its down-set is a
        chain: on an antisymmetric order, the one top."""
        return any(self._chain[n] and len(self._below[n]) == len(self._nodes) for n in self._nodes)


def lattice_validate(L: Lattice) -> ValidationReport:
    """Order axioms, meet totality and unique top/bottom, with witnesses."""
    report = ValidationReport(subject="lattice")
    nodes = L.nodes
    bad = None
    if not L._antisymmetric:  # name the first pair of nodes below each other
        bad = next((a, b) for a, b in itertools.combinations(nodes, 2) if L.leq(a, b) and L.leq(b, a))
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
        except NotALattice:
            bottom = None
        for up, lo in lattice.covers():
            if lo == bottom and (up, lo) not in homs:
                homs[(up, lo)] = rings.collapse_hom(self.ring_at[up])
        self.edge_homs = homs
        self._transitions: dict[tuple, rings.RingHom] = {}
        self._plans: dict[tuple, tuple] = {}  # (i, j) -> _meet_plan(i, j)
        self._passed: ValidationReport | None = None  # dl_validate's passing report
        self._exact = False  # passed on exact data (``checked_exactly`` over the covers)
        self._tables: dict = {}  # finite ring -> its FiniteTables

    def transition(self, i, j) -> rings.RingHom:
        """The composite hom from the ring at i down to the ring at j.

        The path follows, from each node, its first cover lower above j
        (``cover_lowers`` are sorted by ``node_key``); a transition is the
        first edge composed with the cached transition from that cover, and
        every transition computed on the way down is cached.  A cover edge
        on the path with no hom raises ``MissingEdgeHom``, and one whose hom
        does not run between the rings of its two nodes raises
        ``DescriptorMismatch``.
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
        current, seen = i, {i}
        while current != j and (current, j) not in self._transitions:
            nxt = next((lo for lo in self.lattice.cover_lowers(current) if self.lattice.leq(j, lo)), None)
            if nxt is None:  # an order with a cycle: no cover lower of a node off it lies on it
                raise NotComparable(f"no path of covers runs from {i!r} down to {j!r}: it stops at {current!r}")
            if nxt in seen:  # an order with a cycle: the walk came back round it
                raise NotComparable(f"no path of covers runs from {i!r} down to {j!r}: it cycles at {nxt!r}")
            seen.add(nxt)
            path.append((current, nxt))
            current = nxt
        for current, nxt in reversed(path):
            edge = self.edge_homs.get((current, nxt))
            if edge is None:
                raise MissingEdgeHom(
                    f"the cover edge ({current!r}, {nxt!r}) has no hom "
                    f"{self.ring_at[current]} -> {self.ring_at[nxt]}"
                )
            if edge.source != self.ring_at[current] or edge.target != self.ring_at[nxt]:
                # the pushes apply the edge's map to payloads of these two rings
                raise DescriptorMismatch(
                    f"the hom on ({current!r}, {nxt!r}) is {edge}, not a map "
                    f"{self.ring_at[current]} -> {self.ring_at[nxt]}"
                )
            hom = rings.compose_homs(edge) if nxt == j else rings.compose_homs(edge, self._transitions[(nxt, j)])
            self._transitions[(current, j)] = hom
        return hom

    def _meet_plan(self, i, j) -> tuple:
        """(k, f, g, ring): the meet k of nodes i and j, the compiled pushes
        (``RingHom.fn``) of i and of j down to k, each None at k itself, and
        the ring at k.  Found by ``Lattice.meet``, then ``transition(i, k)``,
        then ``transition(j, k)``, and kept in ``_plans`` once all three
        return, so a call that raises caches nothing and raises again."""
        k = self.lattice.meet(i, j)
        f = None if i == k else self.transition(i, k).fn
        g = None if j == k else self.transition(j, k).fn
        plan = self._plans[(i, j)] = k, f, g, self.ring_at[k]
        return plan

    def tables(self, desc: rings.RingDescriptor) -> rings.FiniteTables:
        """The ``FiniteTables`` of a finite ring, built once per directed
        lattice and read by its edge checks, inverse certification and
        carrier index."""
        got = self._tables.get(desc)
        if got is None:
            got = self._tables[desc] = rings.FiniteTables(desc)
        return got

    def is_finite(self) -> bool:
        return all(rings.is_finite(d) for d in self.ring_at.values())

    def validated(self) -> bool:
        """True once ``dl_validate`` has passed on this lattice."""
        return self._passed is not None


def dl_validate(dl: DirectedLattice) -> ValidationReport:
    """Full coherence check of a directed lattice of rings.

    Path independence, T(i,k) = T(j,k)∘T(i,j) for i > j > k, is checked
    one triple per entry.  On exact data (``checked_exactly`` over the
    edges) the cover triples, those whose j is a cover lower of i, decide
    it: if T(i,k) = T(c,k)∘T(i,c) for every cover c of i, then for any
    i > j > k pick a cover c >= j of i, and induction on c gives
    T(i,k) = T(c,k)∘T(i,c) = T(j,k)∘T(c,j)∘T(i,c) = T(j,k)∘T(i,j).  So a
    passing report on exact data lists the cover triples only, and claims
    no other; when one of them fails, every triple is checked again, so a
    failing report lists each triple with its own witness.  Sampled data
    are checked on every triple, since the induction needs every input.

    A passing report is kept on ``dl``, with whether its data were exact:
    a directed lattice is not changed after construction (its transitions
    are cached on the same terms), so validating it again returns that
    report.
    """
    if dl._passed is not None:
        return dl._passed
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
        sub = rings.hom_proof(hom) or rings.hom_validate(hom, dl.tables)
        report.absorb(sub, prefix=f"edge({up}->{lo}).")
    if not report.ok:
        return report

    # path independence on the probes of each node i (``NodeProbes``). On
    # exact data the cover triples decide it: a passing report lists only
    # them, and a failing one is redone over every triple for its witnesses
    exact = checked_exactly(dl.edge_homs[c] for c in L.covers())
    checks = _path_checks(dl, exact, covers_only=exact)
    if exact and not all(c.passed for c in checks):
        checks = _path_checks(dl, exact, covers_only=False)
    report.checks += checks
    if report.ok:
        dl._passed, dl._exact = report, exact
    return report


def _path_checks(dl: DirectedLattice, exact: bool, covers_only: bool) -> list[CheckResult]:
    """One check per comparable triple i > j > k, in node order, or only
    those whose j is a cover lower of i, each on the probes of the node i,
    imaged once per transition."""
    L = dl.lattice
    lower_of = {}
    for j in L.nodes:
        below = L.down_set(j)
        lower_of[j] = [k for k in L.nodes if k != j and k in below]
    checks = []
    for i in L.nodes:
        desc = dl.ring_at[i]
        middle = [j for j in lower_of[i] if not covers_only or j in L.cover_lowers(i)]
        triples = [(j, k) for j in middle for k in lower_of[j]]
        if not triples:
            continue
        node = NodeProbes(desc, exact)
        probes = node.probes
        checked = rings.ring_size(desc) if desc.finite else len(probes)
        images: dict = {}  # node n -> images of the probes under transition(i, n)
        for j, k in triples:
            bad = None
            if probes:
                for n in (j, k):
                    if n not in images:
                        images[n] = list(map(dl.transition(i, n).fn, probes))
                step = dl.transition(j, k).fn
                if list(map(step, images[j])) != images[k]:
                    first, direct = dl.transition(i, j).fn, dl.transition(i, k).fn
                    x = node.first_difference(lambda p: step(first(p)), direct)
                    at_k = dl.ring_at[k]  # x, its image at k through j, its image at k directly
                    bad = (x, rings.RingValue(at_k, step(first(x.payload))), rings.RingValue(at_k, direct(x.payload)))
            name = f"path_independence({i}>{j}>{k})"
            checks.append(CheckResult(name, bad is None, bad, checked, "", not (exact or desc.finite)))
    return checks


def checked_exactly(homs) -> bool:
    """True when checking each of ``homs`` as a ring hom samples nothing: its
    rule proves it, or its source is finite and every pair is checked."""
    return all(h.source.finite or h.rule.proves(h) for h in homs)


class NodeProbes:
    """Where two ring homs out of one node's ring are compared: on exact data
    (``checked_exactly``) the ring's generators, since two ring homs that
    agree there are equal; else every element of a finite ring or
    ``hom_validate``'s fixed sample of an infinite one, the node's inputs.
    A difference is named at the first input that shows it."""

    def __init__(self, desc: rings.RingDescriptor, exact: bool):
        self.desc, self.exact = desc, exact
        self.probes = desc.generators() if exact else self.inputs()

    def inputs(self) -> list:
        if self.desc.finite:
            return rings._listed(self.desc)
        elems, _ = rings._validation_inputs(self.desc)
        return [x.payload for x in elems]

    def first_difference(self, f, g) -> rings.RingValue | None:
        """None when the payload maps f and g agree on the probes; else the
        first input at which they differ, or, when none does (a generator of
        an infinite ring that the sample misses), the first probe that does."""
        miss = next((p for p in self.probes if f(p) != g(p)), None)  # no payload is None
        if miss is not None and self.exact:
            miss = next((p for p in self.inputs() if f(p) != g(p)), miss)
        return None if miss is None else rings.RingValue(self.desc, miss)
