"""Seeded input generators for the benchmark.

Everything here is plain data: lattice files as JSON-ready dicts and
expression trees as tuples.  The same seed gives the same inputs, byte for
byte.  The ``meadows`` package is never imported; table homs for the
composite lattices are computed with the reference semantics in
``oracle``.

The seed varies node names, the order of entries in the files and the
expression stream.  It never varies the shape or size of an input, so the
cost of a workload is the same for every seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracle

# ---------------------------------------------------------------------------
# the benchmark's own copy of a few small corpus lattices


def single(ring) -> dict:
    return {"nodes": {"top": {"ring": ring}, "a": {"ring": "zero"}}, "order": [["a", "top"]], "homs": []}


def chain(*rings_and_maps) -> dict:
    """chain(ring0, map0, ring1, ...): the first ring is the top, maps go down."""
    rings = rings_and_maps[0::2]
    maps = rings_and_maps[1::2]
    names = [f"n{k}" for k in range(len(rings))]
    nodes = {n: {"ring": r} for n, r in zip(names, rings)}
    nodes["a"] = {"ring": "zero"}
    order = [[lo, up] for up, lo in zip(names, names[1:] + ["a"])]
    homs = [{"from": up, "to": lo, "map": m} for up, lo, m in zip(names, names[1:], maps)]
    return {"nodes": nodes, "order": order, "homs": homs}


def diamond(top, left, right, meet, maps) -> dict:
    """top over left and right, which meet at ``meet`` (or at the bottom if None)."""
    nodes = {"t": {"ring": top}, "l": {"ring": left}, "r": {"ring": right}, "a": {"ring": "zero"}}
    order = [["l", "t"], ["r", "t"]]
    homs = [{"from": "t", "to": "l", "map": maps[0]}, {"from": "t", "to": "r", "map": maps[1]}]
    if meet is None:
        order += [["a", "l"], ["a", "r"]]
    else:
        nodes["m"] = {"ring": meet}
        order += [["m", "l"], ["m", "r"], ["a", "m"]]
        homs += [{"from": "l", "to": "m", "map": maps[2]}, {"from": "r", "to": "m", "map": maps[3]}]
    return {"nodes": nodes, "order": order, "homs": homs}


def mod(n: int) -> dict:
    return {"mod": n}


def prod(*ns: int) -> dict:
    return {"product": [mod(n) for n in ns]}


CORPUS = {
    "z2": single(mod(2)),
    "z3": single(mod(3)),
    "z6": single(mod(6)),
    "z2xz3": single(prod(2, 3)),
    "z12xz2": single(prod(12, 2)),
    "chain_z4_z2": chain(mod(4), {"reduce_mod": 2}, mod(2)),
    "chain_z9_z3": chain(mod(9), {"reduce_mod": 3}, mod(3)),
    "z6_split": diamond(mod(6), mod(2), mod(3), None, [{"reduce_mod": 2}, {"reduce_mod": 3}]),
    "z2_diamond": diamond(mod(2), mod(2), mod(2), mod(2), ["identity"] * 4),
    "field_diamond3": diamond(mod(3), mod(3), mod(3), mod(3), ["identity"] * 4),
}


# ---------------------------------------------------------------------------
# combinators on lattice files


def to_json(spec, x):
    k = oracle.kind(spec)
    if k == "product":
        return [to_json(f, a) for f, a in zip(spec["product"], x)]
    if k == "Q":
        return str(x) if x.denominator != 1 else x.numerator
    if k == "poly":
        return [to_json(spec["poly"]["base"], c) for c in x]
    return x


def _table(src_ring, dst_ring, fn) -> dict:
    return {"table": [[to_json(src_ring, v), to_json(dst_ring, fn(v))] for v in oracle.r_elements(src_ring)]}


def product(m: dict, n: dict) -> dict:
    """Componentwise product of two finite lattice files, homs as tables.

    Node pairs with one zero coordinate keep the other coordinate's ring,
    as in the paper's product construction.
    """
    sm, sn = oracle.Structure(m), oracle.Structure(n)

    def name(i, j):
        return f"{i}.{j}"

    def ring(i, j):
        ri, rj = sm.ring[i], sn.ring[j]
        if i == sm.bottom:
            return rj
        if j == sn.bottom:
            return ri
        return {"product": [ri, rj]}

    def push(up, lo):
        (ui, uj), (li, lj) = up, lo
        src, dst = ring(ui, uj), ring(li, lj)

        def fn(v):
            if ui != sm.bottom and uj != sn.bottom:
                vi, vj = v
            else:
                vi = v if uj == sn.bottom else None
                vj = v if ui == sm.bottom else None
            wi = sm.push((ui, vi), li) if vi is not None else None
            wj = sn.push((uj, vj), lj) if vj is not None else None
            if li != sm.bottom and lj != sn.bottom:
                return (wi, wj)
            return wi if lj == sn.bottom else wj

        return _table(src, dst, fn)

    nodes, order, homs = {}, [], []
    for i in sm.nodes:
        for j in sn.nodes:
            nodes[name(i, j)] = {"ring": ring(i, j)}
            lowers = [(lo, j) for lo in sm.covers_below(i)] + [(i, lo) for lo in sn.covers_below(j)]
            for lo in lowers:
                order.append([name(*lo), name(i, j)])
                if lo != (sm.bottom, sn.bottom):
                    homs.append({"from": name(i, j), "to": name(*lo), "map": push((i, j), lo)})
    return {"nodes": nodes, "order": order, "homs": homs}


def glue(m: dict, n: dict, p: int) -> dict:
    """Two characteristic-p lattice files joined under a new Z_p top."""
    nodes = {"g": {"ring": mod(p)}, "a": {"ring": "zero"}}
    order, homs = [], []
    for prefix, data in (("m", m), ("n", n)):
        s = oracle.Structure(data)

        def rename(node):
            return "a" if node == s.bottom else f"{prefix}{node}"

        for node in s.nodes:
            if node != s.bottom:
                nodes[rename(node)] = {"ring": s.ring[node]}
        order += [[rename(lo), rename(up)] for lo, up in data["order"]]
        homs += [{**h, "from": rename(h["from"]), "to": rename(h["to"])} for h in data["homs"]]
        order.append([rename(s.top), "g"])
        top = s.ring[s.top]
        homs.append({"from": "g", "to": rename(s.top), "map": _table(mod(p), top, lambda k: oracle.from_int(top, k))})
    return {"nodes": nodes, "order": order, "homs": homs}


def tower(p: int, k: int) -> dict:
    """Z_p^k over Z_p^(k-1) over ... over Z_p, each map dropping the last coordinate."""
    rings_and_maps = []
    for width in range(k, 0, -1):
        ring = {"product": [mod(p)] * width} if width > 1 else mod(p)
        if rings_and_maps:
            src = rings_and_maps[-1]
            rings_and_maps.append(_table(src, ring, lambda v: v[:-1] if len(v) > 2 else v[0]))
        rings_and_maps.append(ring)
    return chain(*rings_and_maps)


def long_chain(length: int, p: int) -> dict:
    rings_and_maps = [mod(p)]
    for _ in range(length - 1):
        rings_and_maps += ["identity", mod(p)]
    return chain(*rings_and_maps)


def shuffled(data: dict, rng: random.Random, tag: str) -> dict:
    """The same lattice with seeded node names and entry order.

    The names keep the sorted order of the originals, so the library
    enumerates elements, and finds first witnesses, in the same order for
    every seed.
    """
    letters = "bcdefghjkmnpqrstuvwxyz"
    names = {}
    for rank, node in enumerate(sorted(data["nodes"])):
        stem = "".join(rng.choice(letters) for _ in range(3))
        names[node] = f"{tag}{rank:02d}{stem}"
    nodes = [(names[n], spec) for n, spec in data["nodes"].items()]
    order = [[names[lo], names[up]] for lo, up in data["order"]]
    homs = [{**h, "from": names[h["from"]], "to": names[h["to"]]} for h in data["homs"]]
    for seq in (nodes, order, homs):
        rng.shuffle(seq)
    return {"nodes": dict(nodes), "order": order, "homs": homs}


def large_files(rng: random.Random) -> dict[str, dict]:
    """The seeded larger lattice files of the cli_files workload."""
    files = {
        "chain40": long_chain(40, 2),
        "product_diamond_chain": product(CORPUS["z6_split"], CORPUS["chain_z4_z2"]),
        "product_chain_single": product(CORPUS["chain_z9_z3"], CORPUS["z3"]),
        "glued_tower": glue(tower(2, 4), CORPUS["z2_diamond"], 2),
    }
    return {name: shuffled(data, rng, name[0]) for name, data in files.items()}


def dump(data: dict) -> str:
    return json.dumps(data, indent=1) + "\n"


# ---------------------------------------------------------------------------
# expression stream

VARIABLES = ("x", "y", "z", "u")
MAX_POW_TOTAL = 48


def random_value(spec, rng: random.Random):
    """A JSON value in the ring (the binding syntax of lattice files)."""
    k = oracle.kind(spec)
    if k == "Z":
        return rng.randint(-12, 12)
    if k == "Q":
        value = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        return to_json(spec, value)
    if k == "mod":
        return rng.randrange(spec["mod"])
    if k == "product":
        return [random_value(f, rng) for f in spec["product"]]
    if k == "poly":
        return [random_value(spec["poly"]["base"], rng) for _ in range(rng.randint(0, 3))]
    return None


def _tree(rng: random.Random, size: int, budget: list, variables: tuple[str, ...]):
    """A random tree with ``size`` binary operators; budget[0] caps the sum of |exponents|."""
    if size == 0:
        roll = rng.random()
        if roll < 0.45:
            leaf = ("var", rng.choice(variables))
        elif roll < 0.93:
            leaf = ("num", rng.randint(0, 12))
        else:
            leaf = ("a",)
        roll = rng.random()
        if roll < 0.3 and budget[0] > 0:
            k = rng.choice([-1, 1]) * rng.randint(1, min(40, budget[0]))
            if rng.random() < 0.08:
                k = 0
            budget[0] -= abs(k)
            return ("^", leaf, k)
        if roll < 0.4:
            return ("neg", leaf)
        return leaf
    left = rng.randint(0, size - 1)
    op = rng.choice("+-*/")
    node = (op, _tree(rng, left, budget, variables), _tree(rng, size - 1 - left, budget, variables))
    if size <= 2 and budget[0] > 0 and rng.random() < 0.15:
        k = rng.choice([-1, 1]) * rng.randint(1, min(12, budget[0]))
        budget[0] -= abs(k)
        return ("^", node, k)
    if rng.random() < 0.1:
        return ("neg", node)
    return node


def expression(rng: random.Random, variables: tuple[str, ...] = VARIABLES):
    return _tree(rng, rng.randint(2, 7), [MAX_POW_TOTAL], variables)


def render(tree) -> str:
    """Concrete syntax the library's parser accepts for the tree."""
    op = tree[0]
    if op == "num":
        return str(tree[1])
    if op == "a":
        return "a"
    if op == "var":
        return tree[1]
    if op == "neg":
        arg = tree[1]
        return "-" + (f"({render(arg)})" if arg[0] in "+-*/" else render(arg))
    if op == "^":
        base = tree[1]
        text = render(base) if base[0] in ("num", "a", "var") else f"({render(base)})"
        return f"{text}^{tree[2]}"
    left, right = tree[1], tree[2]
    lt = f"({render(left)})" if left[0] in "+-*/" else render(left)
    rt = f"({render(right)})" if right[0] in "+-*/" else render(right)
    return f"{lt} {op} {rt}"


def bindings(data: dict, rng: random.Random, variables: tuple[str, ...] = VARIABLES) -> dict[str, tuple]:
    """Each variable bound to a random value at a random node: name -> (node, json)."""
    rings = {n: s["ring"] for n, s in data["nodes"].items()}
    nodes = sorted(rings)
    out = {}
    for var in variables:
        node = rng.choice(nodes)
        out[var] = (node, random_value(rings[node], rng))
    return out


def expression_stream(data: dict, rng: random.Random, count: int) -> list[tuple]:
    """(tree, text, bindings) triples over one carrier."""
    out = []
    for _ in range(count):
        tree = expression(rng)
        out.append((tree, render(tree), bindings(data, rng)))
    return out
