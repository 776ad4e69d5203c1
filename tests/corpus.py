"""Shared corpus of finite directed lattices and homs for the test suite.

Every corpus lattice has at most 6 nodes, components drawn from residue
rings and their products, and a carrier of at most 200 elements.  The
builders beside them make the divisor lattices of a modulus, a diamond
whose edge table misses an input and a chain whose edge table is not a
ring hom, for the differential tests.
"""

from __future__ import annotations

import functools
import math

from meadows import rings
from meadows.latfile import lattice_from_dict
from meadows.lattice import DirectedLattice, Lattice
from meadows.meadow import Meadow, build_meadow
from meadows.morphisms import MeadowHom, adjoin_error, glue, hom_from_carrier_map, meadow_product
from meadows.enumeration import enumerate_meadow_hom_maps


def single(desc) -> DirectedLattice:
    lat = Lattice(["top", "a"], [("a", "top")])
    return DirectedLattice(lat, {"top": desc, "a": rings.ZERO})


def chain(*descs_and_homs) -> DirectedLattice:
    """chain(descN, homN, ..., desc0): top ring first, homs going down."""
    descs = descs_and_homs[0::2]
    homs = descs_and_homs[1::2]
    names = [f"n{k}" for k in range(len(descs))] + ["a"]
    order = [(names[k + 1], names[k]) for k in range(len(names) - 1)]
    lat = Lattice(names, order)
    ring_at = {f"n{k}": d for k, d in enumerate(descs)}
    ring_at["a"] = rings.ZERO
    edge_homs = {(f"n{k}", f"n{k+1}"): h for k, h in enumerate(homs)}
    return DirectedLattice(lat, ring_at, edge_homs)


def z6_split_diamond() -> DirectedLattice:
    """Z6 on top, its two residue fields below, meeting at the bottom."""
    lat = Lattice(["t", "l", "r", "a"], [("a", "l"), ("a", "r"), ("l", "t"), ("r", "t")])
    return DirectedLattice(
        lat,
        {"t": rings.Mod(6), "l": rings.Mod(2), "r": rings.Mod(3), "a": rings.ZERO},
        {("t", "l"): rings.mod_to_mod(6, 2), ("t", "r"): rings.mod_to_mod(6, 3)},
    )


def z2_diamond_with_meet() -> DirectedLattice:
    """Four copies of Z2 in a diamond whose meet node sits above the bottom."""
    lat = Lattice(
        ["t", "l", "r", "m", "a"],
        [("a", "m"), ("m", "l"), ("m", "r"), ("l", "t"), ("r", "t")],
    )
    two = rings.Mod(2)
    ident = rings.identity_hom(two)
    return DirectedLattice(
        lat,
        {"t": two, "l": two, "r": two, "m": two, "a": rings.ZERO},
        {("t", "l"): ident, ("t", "r"): ident, ("l", "m"): ident, ("r", "m"): ident},
    )


def field_diamond(p: int = 3) -> DirectedLattice:
    lat = Lattice(
        ["f0", "f1", "f2", "f3", "a"],
        [("a", "f3"), ("f3", "f1"), ("f3", "f2"), ("f1", "f0"), ("f2", "f0")],
    )
    f = rings.Mod(p)
    ident = rings.identity_hom(f)
    return DirectedLattice(
        lat,
        {"f0": f, "f1": f, "f2": f, "f3": f, "a": rings.ZERO},
        {("f0", "f1"): ident, ("f0", "f2"): ident, ("f1", "f3"): ident, ("f2", "f3"): ident},
    )


def two_z3_ambiguous() -> DirectedLattice:
    """Not a meadow: 2 inverts in both incomparable residue fields."""
    lat = Lattice(["t", "b1", "b2", "a"], [("a", "b1"), ("a", "b2"), ("b1", "t"), ("b2", "t")])
    return DirectedLattice(
        lat,
        {"t": rings.Mod(6), "b1": rings.Mod(3), "b2": rings.Mod(3), "a": rings.ZERO},
        {("t", "b1"): rings.mod_to_mod(6, 3), ("t", "b2"): rings.mod_to_mod(6, 3)},
    )


def two_q_ambiguous() -> DirectedLattice:
    lat = Lattice(["z", "q1", "q2", "a"], [("a", "q1"), ("a", "q2"), ("q1", "z"), ("q2", "z")])
    return DirectedLattice(
        lat,
        {"z": rings.Z, "q1": rings.Q, "q2": rings.Q, "a": rings.ZERO},
        {("z", "q1"): rings.include_rationals(), ("z", "q2"): rings.include_rationals()},
    )


def chain_z_q() -> DirectedLattice:
    return chain(rings.Z, rings.include_rationals(), rings.Q)


def broken_square_diamond() -> DirectedLattice:
    """Valid edge homs whose two paths to the meet disagree at (0, 1)."""
    two = rings.Mod(2)
    prod = rings.Product((two, two))
    lat = Lattice(
        ["t", "l", "r", "m", "a"],
        [("a", "m"), ("m", "l"), ("m", "r"), ("l", "t"), ("r", "t")],
    )
    ident = rings.identity_hom(two)
    return DirectedLattice(
        lat,
        {"t": prod, "l": two, "r": two, "m": two, "a": rings.ZERO},
        {
            ("t", "l"): rings.project(prod, 0),
            ("t", "r"): rings.project(prod, 1),
            ("l", "m"): ident,
            ("r", "m"): ident,
        },
    )


def bad_table_diamond() -> DirectedLattice:
    """One edge is a table that is not a ring hom (wrong at 2 = 1 + 1)."""
    lat = Lattice(["t", "l", "r", "m", "a"],
                  [("a", "m"), ("m", "l"), ("m", "r"), ("l", "t"), ("r", "t")])
    four, two = rings.Mod(4), rings.Mod(2)
    bad = rings.table_hom(four, two, [(0, 0), (1, 1), (2, 1), (3, 1)])
    ident = rings.identity_hom(two)
    return DirectedLattice(
        lat,
        {"t": four, "l": two, "r": two, "m": two, "a": rings.ZERO},
        {("t", "l"): rings.mod_to_mod(4, 2), ("t", "r"): bad, ("l", "m"): ident, ("r", "m"): ident},
    )


def broken_table_chain() -> DirectedLattice:
    """Z4 > Z2 > 0 whose edge table t -> m (0, 1, 1, 0) is not a ring hom; unvalidated.

    Several laws of one arity fail on it at once: as a pre-meadow, PM1, PM5
    and PM8, the whole of PM's arity-3 group.
    """
    return lattice_from_dict({
        "nodes": {"t": {"ring": {"mod": 4}}, "m": {"ring": {"mod": 2}}, "a": {"ring": "zero"}},
        "order": [["a", "m"], ["m", "t"]],
        "homs": [{"from": "t", "to": "m", "map": {"table": [[0, 0], [1, 1], [2, 1], [3, 0]]}}],
    })


def without_implied_path_checks(L: Lattice, checks) -> list:
    """``checks`` without the path_independence checks of triples i > j > k
    whose j is not a cover lower of i, each of which must have passed: what
    a passing report on exact data lists, since the cover triples imply the
    rest."""
    covers = {
        f"path_independence({i}>{j}>{k})"
        for i in L.nodes
        for j in L.cover_lowers(i)
        for k in L.nodes
        if k != j and L.leq(k, j)
    }
    implied = {c.name: c.passed for c in checks if c.name.startswith("path_independence(") and c.name not in covers}
    assert all(implied.values())
    return [c for c in checks if c.name not in implied]


def divisor_lattice(n: int, chosen, integers_on_top: bool) -> DirectedLattice:
    """Z_d on each divisor d of n in the gcd closure of ``chosen`` and n, ordered
    by divisibility, with the zero ring at 1; under Z when ``integers_on_top``.

    The meet of two nodes is their gcd, every edge a reduction, and an
    element inverts at the divisors it is coprime to, so two incomparable
    ones can both hold its inverse.
    """
    divisors = {n, 1} | set(chosen)
    while True:
        more = {math.gcd(d, e) for d in divisors for e in divisors} - divisors
        if not more:
            break
        divisors |= more
    name = {d: f"d{d}" if d > 1 else "a" for d in divisors}
    order = [(name[d], name[e]) for d in divisors for e in divisors if d != e and e % d == 0]
    ring_at = {name[d]: rings.Mod(d) if d > 1 else rings.ZERO for d in divisors}
    if integers_on_top:
        order += [(name[d], "z") for d in divisors]
        ring_at["z"] = rings.Z
    lat = Lattice(list(ring_at), order)
    edges = {}
    for up, lo in lat.covers():
        if lo != "a":
            target = ring_at[lo].n
            edges[(up, lo)] = rings.reduce_mod(target) if up == "z" else rings.mod_to_mod(ring_at[up].n, target)
    return DirectedLattice(lat, ring_at, edges)


def incomplete_table(desc, missing) -> rings.RingHom:
    """A table on desc to itself, the identity except at the inputs in ``missing``."""
    pairs = [(v, v) for v in rings.sample_pool(desc) if v.payload not in missing]
    return rings.table_hom(desc, desc, pairs)


def z4_diamond_missing_3() -> DirectedLattice:
    """A diamond of Z4, Z4 and Z2 whose edge table t -> l misses 3; invalid."""
    z4 = rings.Mod(4)
    lat = Lattice(["t", "l", "r", "a"], [("a", "l"), ("a", "r"), ("l", "t"), ("r", "t")])
    return DirectedLattice(
        lat,
        {"t": z4, "l": z4, "r": rings.Mod(2), "a": rings.ZERO},
        {("t", "l"): incomplete_table(z4, (3,)), ("t", "r"): rings.mod_to_mod(4, 2)},
    )


def valid_finite_lattices() -> list[tuple[str, DirectedLattice]]:
    """At least 20 valid finite directed lattices for the main corpus."""
    out = [(f"z{n}", single(rings.Mod(n))) for n in (2, 3, 4, 5, 6, 7, 8, 9, 12)]
    out += [
        ("z2xz2", single(rings.Product((rings.Mod(2), rings.Mod(2))))),
        ("z2xz3", single(rings.Product((rings.Mod(2), rings.Mod(3))))),
        ("z3xz3", single(rings.Product((rings.Mod(3), rings.Mod(3))))),
        ("z2cube", single(rings.Product((rings.Mod(2),) * 3))),
        ("chain_z4_z2", chain(rings.Mod(4), rings.mod_to_mod(4, 2), rings.Mod(2))),
        ("chain_z6_z2", chain(rings.Mod(6), rings.mod_to_mod(6, 2), rings.Mod(2))),
        ("chain_z6_z3", chain(rings.Mod(6), rings.mod_to_mod(6, 3), rings.Mod(3))),
        (
            "chain_z8_z4_z2",
            chain(
                rings.Mod(8),
                rings.mod_to_mod(8, 4),
                rings.Mod(4),
                rings.mod_to_mod(4, 2),
                rings.Mod(2),
            ),
        ),
        ("chain_z9_z3", chain(rings.Mod(9), rings.mod_to_mod(9, 3), rings.Mod(3))),
        (
            "chain_z12_z6_z3",
            chain(
                rings.Mod(12),
                rings.mod_to_mod(12, 6),
                rings.Mod(6),
                rings.mod_to_mod(6, 3),
                rings.Mod(3),
            ),
        ),
        ("z6_split_diamond", z6_split_diamond()),
        ("z2_diamond", z2_diamond_with_meet()),
        ("field_diamond", field_diamond()),
    ]
    return out


@functools.lru_cache(maxsize=1)
def finite_meadows() -> tuple[tuple[str, Meadow], ...]:
    built = [(name, build_meadow(dl, mode="verify")) for name, dl in valid_finite_lattices()]
    m2 = adjoin_error(rings.Mod(2))
    built.append(("product_z2_z2", meadow_product(m2, m2)))
    built.append(("glue_z2_z2", glue(m2, m2, 2)))
    return tuple(built)


def ideal_leq(i1, i2) -> bool:
    """Containment of two ideals of one finite structure, node by node, on their member sets."""
    return all(i1.members_by_node(n) <= i2.members_by_node(n) for n in i1.meadow.lattice.nodes)


@functools.lru_cache(maxsize=1)
def hom_corpus() -> tuple[tuple[str, MeadowHom], ...]:
    """At least 50 validated homs between finite corpus structures."""
    meadows = dict(finite_meadows())
    out: list[tuple[str, MeadowHom]] = []
    pairs = [
        ("z2", "z2"), ("z3", "z3"), ("z4", "z4"), ("z6", "z6"),
        ("z2", "z2xz2"), ("z2xz2", "z2"), ("z2xz2", "z2xz2"),
        ("z4", "z2"), ("z6", "z2"), ("z6", "z3"), ("z12", "z6"),
        ("z2", "chain_z4_z2"), ("z2", "z2_diamond"),
        ("chain_z4_z2", "z2"), ("chain_z6_z2", "z2"),
        ("chain_z4_z2", "chain_z4_z2"), ("chain_z6_z3", "chain_z6_z3"),
        ("z2_diamond", "z2"), ("z2_diamond", "z2_diamond"),
        ("z2cube", "z2"), ("z2cube", "z2xz2"), ("z2xz3", "z2"), ("z2xz3", "z3"),
        ("field_diamond", "z3"),
    ]
    for src_name, dst_name in pairs:
        src, dst = meadows[src_name], meadows[dst_name]
        for k, mapping in enumerate(enumerate_meadow_hom_maps(src, dst)):
            out.append((f"{src_name}->{dst_name}#{k}", hom_from_carrier_map(src, dst, mapping)))
    return tuple(out)
