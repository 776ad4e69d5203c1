"""JSON lattice and ideal files.

Lattice file shape:

    { "nodes": { "<id>": { "ring": <ring> } },
      "order": [ ["<lower>", "<upper>"], ... ],
      "homs":  [ { "from": "<upper>", "to": "<lower>", "map": <map> } ] }

ring: "Z" | "Q" | {"mod": n} | {"poly": {"base": <ring>, "var": "x"}}
      | {"product": [<ring>, ...]} | "zero"
map:  "identity" | "include_q" | {"reduce_mod": n} | "unit_map"
      | {"eval_at": <value>} | {"project": k} | {"table": [[in, out], ...]}

Exactly one node carries "zero" and it must be the unique minimum of
"order".  Homs into the zero node may be omitted (the collapse map is
unique and synthesized).  Ideal file:
{ "<node>": "zero" | "whole" | {"nZ": n} | {"subset": [<value>, ...]} }.
"""

from __future__ import annotations

import json

from . import rings
from .errors import ParseError, ValidationFailed
from .lattice import DirectedLattice, Lattice, dl_validate, node_key
from .meadow import PreMeadow
from .morphisms import FiniteSubset, MeadowIdeal, NZ, WholeRing, ZeroIdeal

# what a malformed file raises from the code that reads it (MeadowErrors pass)
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def ring_from_json(obj) -> rings.RingDescriptor:
    if obj == "Z":
        return rings.Z
    if obj == "Q":
        return rings.Q
    if obj == "zero":
        return rings.ZERO
    if isinstance(obj, dict):
        if "mod" in obj:
            return rings.Mod(obj["mod"])
        if "poly" in obj:
            spec = obj["poly"]
            return rings.Poly(ring_from_json(spec["base"]), spec.get("var", "x"))
        if "product" in obj:
            return rings.Product(tuple(ring_from_json(f) for f in obj["product"]))
    raise ParseError(f"unrecognized ring spec {obj!r}")


def ring_to_json(desc: rings.RingDescriptor):
    if isinstance(desc, rings.Integers):
        return "Z"
    if isinstance(desc, rings.Rationals):
        return "Q"
    if isinstance(desc, rings.Zero):
        return "zero"
    if isinstance(desc, rings.Mod):
        return {"mod": desc.n}
    if isinstance(desc, rings.Poly):
        return {"poly": {"base": ring_to_json(desc.base), "var": desc.var}}
    if isinstance(desc, rings.Product):
        return {"product": [ring_to_json(f) for f in desc.factors]}
    raise ParseError(f"cannot serialize {desc!r}")


def value_from_json(desc: rings.RingDescriptor, obj) -> rings.RingValue:
    """The exact value of ``desc`` written as ``obj``; floats are refused."""
    try:
        return rings.ring_value(desc, obj)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"bad value {obj!r} for {desc}: {exc}") from exc


def value_to_json(v: rings.RingValue):
    return v.ring.to_raw(v.payload)


def _hom_from_json(spec, source: rings.RingDescriptor, target: rings.RingDescriptor) -> rings.RingHom:
    if spec == "identity":
        if source != target:
            raise ParseError(f"identity between different rings {source} and {target}")
        return rings.identity_hom(source)
    if spec == "include_q":
        return rings.include_rationals()
    if spec == "unit_map":
        return rings.unit_map(target)
    if spec == "collapse":
        return rings.collapse_hom(source)
    if isinstance(spec, dict):
        if "reduce_mod" in spec:
            n = spec["reduce_mod"]
            if isinstance(source, rings.Integers):
                return rings.reduce_mod(n)
            if isinstance(source, rings.Mod):
                return rings.mod_to_mod(source.n, n)
            raise ParseError(f"reduce_mod needs Z or Z_n source, got {source}")
        if "eval_at" in spec:
            if not isinstance(source, rings.Poly):
                raise ParseError(f"eval_at needs a polynomial source, got {source}")
            return rings.poly_eval_at(source, value_from_json(source.base, spec["eval_at"]))
        if "project" in spec:
            if not isinstance(source, rings.Product):
                raise ParseError(f"project needs a product source, got {source}")
            return rings.project(source, spec["project"])
        if "table" in spec:
            pairs = [
                (value_from_json(source, i), value_from_json(target, o))
                for i, o in spec["table"]
            ]
            return rings.table_hom(source, target, pairs)
    raise ParseError(f"unrecognized hom spec {spec!r}")


def lattice_from_dict(data: dict) -> DirectedLattice:
    """Structural parse only; run dl_validate (or load_lattice_file) after."""
    try:
        ring_at = {name: ring_from_json(spec["ring"]) for name, spec in data["nodes"].items()}
        zero_nodes = [n for n, d in ring_at.items() if isinstance(d, rings.Zero)]
        if len(zero_nodes) != 1:
            raise ParseError(f"exactly one node must carry the zero ring, found {zero_nodes}")
        lat = Lattice(list(ring_at), [tuple(pair) for pair in data["order"]])
        if lat.bottom != zero_nodes[0]:
            raise ParseError(f"the zero node {zero_nodes[0]!r} must be the unique minimum")
        covers = set(lat.covers())
        edge_homs = {}
        for entry in data.get("homs", []):
            up, lo = entry["from"], entry["to"]
            if (up, lo) not in covers:
                raise ParseError(f"hom given for non-covering pair ({up!r}, {lo!r})")
            edge_homs[(up, lo)] = _hom_from_json(entry["map"], ring_at[up], ring_at[lo])
        return DirectedLattice(lat, ring_at, edge_homs)
    except _MALFORMED as exc:
        raise ParseError(f"malformed lattice file: {type(exc).__name__}: {exc}") from exc


def load_lattice_file(path) -> DirectedLattice:
    """Parse and fully validate a lattice file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, or an int past the int/str digit limit
        raise ParseError(f"cannot read {path}: {exc}") from exc
    dl = lattice_from_dict(data)
    report = dl_validate(dl)
    if not report.ok:
        raise ValidationFailed(report)
    return dl


def _hom_to_json(h: rings.RingHom):
    rule = h.rule
    if isinstance(rule, rings.Identity):
        return "identity"
    if isinstance(rule, rings.IncludeRationals):
        return "include_q"
    if isinstance(rule, rings.UnitMap):
        return "unit_map"
    if isinstance(rule, rings.Collapse):
        return "collapse"
    if isinstance(rule, (rings.ReduceIntMod, rings.ReduceModDiv)):
        return {"reduce_mod": h.target.n}
    if isinstance(rule, rings.PolyEvalAt):
        return {"eval_at": value_to_json(rule.point)}
    if isinstance(rule, rings.Project):
        return {"project": rule.index}
    if isinstance(rule, rings.TableRule):
        return {"table": [[value_to_json(i), value_to_json(o)] for i, o in rule.graph]}
    if rings.is_finite(h.source):
        # anything else over a finite source flattens to a table
        pairs = [(v, rings.hom_apply(h, v)) for v in rings.enumerate_ring(h.source)]
        return {"table": [[value_to_json(i), value_to_json(o)] for i, o in pairs]}
    raise ParseError(f"cannot serialize hom {h}")


def lattice_to_dict(dl: DirectedLattice) -> dict:
    bottom = dl.lattice.bottom
    names = {n: node_key(n) for n in dl.lattice.nodes}
    order = sorted(
        [names[lo], names[up]]
        for up, lo in dl.lattice.covers()
    )
    homs = []
    for (up, lo), hom in sorted(dl.edge_homs.items(), key=lambda kv: (node_key(kv[0][0]), node_key(kv[0][1]))):
        if lo == bottom:
            continue
        homs.append({"from": names[up], "to": names[lo], "map": _hom_to_json(hom)})
    return {
        "nodes": {names[n]: {"ring": ring_to_json(dl.ring_at[n])} for n in dl.lattice.nodes},
        "order": order,
        "homs": homs,
    }


def ideal_from_dict(data: dict, meadow: PreMeadow) -> MeadowIdeal:
    """Missing nodes default to the zero ideal; the bottom is always whole."""
    L = meadow.lattice
    ideal_at = {}
    try:
        for node in L.nodes:
            spec = data.get(node_key(node))
            desc = meadow.dl.ring_at[node]
            if node == L.bottom:
                ideal_at[node] = WholeRing()
            elif spec is None or spec == "zero":
                ideal_at[node] = ZeroIdeal()
            elif spec == "whole":
                ideal_at[node] = WholeRing()
            elif isinstance(spec, dict) and "nZ" in spec:
                ideal_at[node] = NZ(spec["nZ"])
            elif isinstance(spec, dict) and "subset" in spec:
                ideal_at[node] = FiniteSubset(
                    frozenset(value_from_json(desc, v) for v in spec["subset"])
                )
            else:
                raise ParseError(f"unrecognized ideal spec {spec!r} at node {node!r}")
        return MeadowIdeal(meadow, ideal_at)
    except _MALFORMED as exc:
        raise ParseError(f"malformed ideal file: {type(exc).__name__}: {exc}") from exc


def load_ideal_file(path, meadow: PreMeadow) -> MeadowIdeal:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, or an int past the int/str digit limit
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return ideal_from_dict(data, meadow)
