"""Exhaustive enumeration of homs and ideals at desk scale.

These are verification utilities for small finite structures: counting
hom-sets for the adjunction checks, confirming uniqueness claims, and
listing every ideal of a finite structure.  They search over raw carrier
maps with constraint propagation, so they do not presuppose any of the
structure theory they are used to test.
"""

from __future__ import annotations

import itertools

from . import rings
from .meadow import PreMeadow
from .morphisms import FiniteSubset, MeadowIdeal, WholeRing, ideal_validate


def _search_maps(n_src, n_dst, add_src, mul_src, add_dst, mul_dst, seeds):
    """All maps 0..n_src-1 -> 0..n_dst-1 respecting both index tables.

    DFS with forced closure; a map is a dict in assignment order.
    """
    results = []

    def consistent(assign, newly):
        queue = list(newly)
        while queue:
            x = queue.pop()
            for y in list(assign):
                for src_op, dst_op in ((add_src, add_dst), (mul_src, mul_dst)):
                    for u, v in ((x, y), (y, x)):
                        s = src_op[u][v]
                        img = dst_op[assign[u]][assign[v]]
                        if s in assign:
                            if assign[s] != img:
                                return False
                        else:
                            assign[s] = img
                            queue.append(s)
        return True

    def extend(assign):
        missing = [e for e in range(n_src) if e not in assign]
        if not missing:
            results.append(dict(assign))
            return
        x = missing[0]
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
    maps = _search_maps(len(s.elements), len(d.elements), s.add, s.mul, d.add, d.mul, seeds)
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
    seeds = {src.position[m.one]: dst.position[n.one]}
    maps = _search_maps(
        len(src.elements), len(dst.elements), src.add, src.mul, dst.add, dst.mul, seeds
    )
    return [{src.elements[i]: dst.elements[j] for i, j in mp.items()} for mp in maps]


def _finite_ring_ideals(desc: rings.RingDescriptor) -> list[frozenset]:
    """All ideals of a finite descriptor, as explicit element sets."""
    if isinstance(desc, rings.Zero):
        return [frozenset(rings.enumerate_ring(desc))]
    if isinstance(desc, rings.Mod):
        out = []
        for d in range(1, desc.n + 1):
            if desc.n % d == 0:
                out.append(
                    frozenset(rings.ring_value(desc, k) for k in range(0, desc.n, d))
                )
        return out
    if isinstance(desc, rings.Product):
        factor_ideals = [_finite_ring_ideals(f) for f in desc.factors]
        out = []
        for combo in itertools.product(*factor_ideals):
            members = frozenset(
                rings.RingValue(desc, parts)
                for parts in itertools.product(*combo)
            )
            out.append(members)
        return out
    raise ValueError(f"no ideal enumeration for {desc}")


def enumerate_meadow_ideals(m: PreMeadow) -> list[MeadowIdeal]:
    """All proper ideals (not whole at the top) of a finite structure, validated; bottom is always whole."""
    L = m.lattice
    bottom = L.bottom
    per_node = {}
    for node in L.nodes:
        if node == bottom:
            per_node[node] = [None]
            continue
        per_node[node] = _finite_ring_ideals(m.dl.ring_at[node])
    nodes = list(L.nodes)
    out = []
    for combo in itertools.product(*(per_node[n] for n in nodes)):
        ideal_at = {}
        for node, members in zip(nodes, combo):
            if node == bottom:
                ideal_at[node] = WholeRing()
            else:
                ideal_at[node] = FiniteSubset(members)
        ideal = MeadowIdeal(m, ideal_at)
        if isinstance(ideal.spec_at(L.top), WholeRing):
            continue
        if ideal_validate(ideal).ok:
            out.append(ideal)
    return out


def ideal_leq(i1: MeadowIdeal, i2: MeadowIdeal) -> bool:
    """Containment of finite ideals, node by node."""
    return all(
        i1.members_by_node(n) <= i2.members_by_node(n) for n in i1.meadow.lattice.nodes
    )


def maximal_ideals(m: PreMeadow) -> list[MeadowIdeal]:
    """Proper ideals with no strictly larger proper ideal."""
    proper = enumerate_meadow_ideals(m)
    out = []
    for i in proper:
        if not any(
            j is not i and ideal_leq(i, j) and not ideal_leq(j, i) for j in proper
        ):
            out.append(i)
    return out
