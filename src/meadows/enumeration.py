"""Exhaustive enumeration of homs and ideals at desk scale.

These are verification utilities for small finite structures: counting
hom-sets for the adjunction checks, confirming uniqueness claims, and
listing every ideal of a finite structure.  Homs are found by a search over
raw carrier maps with constraint propagation, so they do not presuppose any
of the structure theory they are used to test.  Ideals are not searched on
the carrier: each node's ring ideals are numbered once, and a top-down walk
picks one per node such that every transition between comparable nodes
maps the ideal above into the ideal below, the check ``ideal_validate``
makes.
"""

from __future__ import annotations

import itertools

from . import rings
from .errors import InfiniteCarrier
from .meadow import PreMeadow
from .morphisms import MeadowIdeal, PayloadSet, WholeRing, ZeroIdeal


def _search_maps(n_src, n_dst, add_src, mul_src, add_dst, mul_dst, seeds):
    """All maps 0..n_src-1 -> 0..n_dst-1 respecting both index tables.

    DFS with forced closure; a map is a dict in assignment order.  The
    closure pops the most recently forced element x and, for each y
    assigned at that moment, checks the sum and the product of (x, y): an
    undetermined image is forced, a determined one must agree.  The tables
    are commutative, as every ring's and meadow's are, so (y, x) names the
    same equation and is not checked again: right after (x, y) its image is
    already forced, so checking it would force nothing and fail nowhere.
    The maps, their order and each map's item order are those of a search
    that also checks (y, x).
    """
    results = []

    def consistent(assign, newly):
        queue = list(newly)
        while queue:
            x = queue.pop()
            rows = (add_src[x], add_dst[assign[x]]), (mul_src[x], mul_dst[assign[x]])
            for y in list(assign):
                fy = assign[y]
                for src_row, dst_row in rows:
                    s, img = src_row[y], dst_row[fy]
                    got = assign.get(s)
                    if got is None:
                        assign[s] = img
                        queue.append(s)
                    elif got != img:
                        return False
        return True

    def extend(assign):
        x = next((e for e in range(n_src) if e not in assign), None)
        if x is None:
            results.append(dict(assign))
            return
        for img in range(n_dst):
            trial = dict(assign)
            trial[x] = img
            if consistent(trial, [x]):
                extend(trial)

    start = dict(seeds)
    if consistent(start, list(start)):
        extend(start)
    return results


def enumerate_ring_homs(src: rings.RingDescriptor, dst: rings.RingDescriptor) -> list[rings.RingHom]:
    """Every unital ring hom between two finite rings, as table homs."""
    s, d = rings.FiniteTables(src), rings.FiniteTables(dst)
    seeds = {s.index[src.from_int(1)]: d.index[dst.from_int(1)]}
    maps = _search_maps(len(s.payloads), len(d.payloads), s.add, s.mul, d.add, d.mul, seeds)
    return [
        rings.table_hom(src, dst, [(s.elements[i], d.elements[j]) for i, j in m.items()])
        for m in maps
    ]


def enumerate_meadow_hom_maps(m: PreMeadow, n: PreMeadow) -> list[dict]:
    """Every carrier map satisfying the hom equations, found by raw search.

    Nothing about node maps or ring maps is assumed; only f(1) = 1 seeds
    the search, everything else is forced or branched on.
    """
    src, dst = m.freeze_tables(), n.freeze_tables()
    seeds = {src.key(m.one): dst.key(n.one)}
    maps = _search_maps(
        len(src.elements), len(dst.elements), src.add, src.mul, dst.add, dst.mul, seeds
    )
    return [{src.elements[i]: dst.elements[j] for i, j in mp.items()} for mp in maps]


def _finite_ring_ideals(desc: rings.RingDescriptor) -> list[frozenset]:
    """All ideals of a finite ring as payload sets, the whole ring first.

    Z_n has the multiples of each divisor d of n, d ascending; a product
    has the products of its factors' ideals, in ``itertools.product`` order.
    """
    if isinstance(desc, rings.Mod):
        return [frozenset(range(0, desc.n, d)) for d in range(1, desc.n + 1) if desc.n % d == 0]
    if isinstance(desc, rings.Product):
        factor_ideals = [_finite_ring_ideals(f) for f in desc.factors]
        return [frozenset(itertools.product(*combo)) for combo in itertools.product(*factor_ideals)]
    return [frozenset(desc.elements())]  # the zero ring


def _node_ideals(m: PreMeadow) -> dict:
    """Each node's numbered ring ideals; the bottom, always whole, has one."""
    L = m.lattice
    ring_at, bottom = m.dl.ring_at, L.bottom
    if not all(rings.is_finite(ring_at[n]) for n in L.nodes if n != bottom):
        raise InfiniteCarrier("ideals are enumerated on finite carriers only")
    return {n: [None] if n == bottom else _finite_ring_ideals(ring_at[n]) for n in L.nodes}


def _fits(m: PreMeadow, ideals: dict, up, lo) -> list[int]:
    """Bit j of fits[i]: ideal i at ``up`` and ideal j at ``lo`` pass the checks on up -> lo.

    The whole ring (index 0) at ``lo`` takes any image; below a whole ring
    only the whole ring fits.
    """
    fn = m.dl.transition(up, lo).fn
    out = [1]
    for ideal in ideals[up][1:]:
        image = frozenset(map(fn, ideal))
        out.append(sum(1 << j for j, other in enumerate(ideals[lo]) if j == 0 or image <= other))
    return out


def _proper_ideal_indices(m: PreMeadow, ideals: dict) -> list[tuple]:
    """Index tuples, in ``L.nodes`` order and sorted, of every proper ideal.

    Nodes are walked by the size of their up-sets, top first, a linear
    extension of the order.  A node is offered the ideals that fit the
    choice at every node above it; the top is not offered the whole ring.
    Every comparable pair is checked, not only covers, so no path
    independence is assumed.  The whole ring fits below any choice, so the
    walk never reaches a dead end.  (On an order with a cycle the
    transition from the top into the cycle raises.)
    """
    L = m.lattice
    nodes, top, bottom = L.nodes, L.top, L.bottom
    order = sorted(nodes, key=lambda n: sum(L.leq(n, u) for u in nodes))
    steps = []  # (option count, option mask, [(position above, option mask by its choice)])
    for k, x in enumerate(order):
        full = (1 << len(ideals[x])) - 1
        if x == top:
            full &= ~1
        checks = [
            (pos, _fits(m, ideals, e, x))
            for pos, e in enumerate(order[:k])
            if x != bottom and L.leq(x, e)  # the whole bottom fits below anything
        ]
        steps.append((len(ideals[x]), full, checks))
    partial = [()]
    for count, full, checks in steps:
        grown = []
        for p in partial:
            mask = full
            for pos, masks in checks:
                mask &= masks[p[pos]]
            grown.extend(p + (i,) for i in range(count) if mask >> i & 1)
        partial = grown
    where = [order.index(n) for n in nodes]
    return sorted(tuple(p[k] for k in where) for p in partial)


def _meadow_ideals(m: PreMeadow, ideals: dict, found: list[tuple]) -> list[MeadowIdeal]:
    """One ``MeadowIdeal`` per index tuple; index 0 is the whole ring, a one-element ideal the zero."""
    nodes = m.lattice.nodes
    specs = {
        n: [WholeRing()] + [ZeroIdeal() if len(i) == 1 else PayloadSet(dict.fromkeys(i)) for i in ideals[n][1:]]
        for n in nodes
    }
    return [MeadowIdeal.of_bound(m, {n: specs[n][i] for n, i in zip(nodes, combo)}) for combo in found]


def enumerate_meadow_ideals(m: PreMeadow) -> list[MeadowIdeal]:
    """All proper ideals (not whole at the top) of a finite structure; bottom is always whole.

    An ideal is one ring ideal per node, closed under every transition and
    whole below any whole node, as ``ideal_validate`` checks; they come in
    ``itertools.product`` order over the nodes' numbered ring ideals.
    """
    ideals = _node_ideals(m)
    return _meadow_ideals(m, ideals, _proper_ideal_indices(m, ideals))


def maximal_ideals(m: PreMeadow) -> list[MeadowIdeal]:
    """Proper ideals with no strictly larger proper ideal.

    A proper ideal with ring ideal M at the top lies inside the one with M
    at the top and the whole ring at every other node, which is a proper
    ideal too.  So the maximal ideals are those, for M a maximal ideal of
    the top ring, in the order ``enumerate_meadow_ideals`` lists them.
    """
    ideals = _node_ideals(m)
    L = m.lattice
    top = L.top
    at_top = ideals[top]  # [None] when the top is the bottom
    maximal = [
        i for i in range(1, len(at_top))
        if not any(at_top[i] < at_top[j] for j in range(1, len(at_top)))
    ]
    found = [tuple(i if n == top else 0 for n in L.nodes) for i in maximal]
    return _meadow_ideals(m, ideals, found)
