"""hom_build on finite meadows against an element-by-element reference.

``reference_hom_build`` is the element-by-element algorithm: commuting
squares by composing ring homs and applying them to every ring element,
then f(1) = 1 and the hom equations on every element pair through
``MeadowHom.apply`` and the meadows' own ``add``/``mul``, on meadows whose
tables were never frozen.  ``TableRule`` homs are applied by a linear scan
of their graph.  Every candidate hom is built by both; they must agree on
the hom or on the exception class and message.  ``hom_build`` scans the
hom equations only on an infinite source, because on a finite one they
follow from its node, ring-map and square checks; ``compare`` checks that
the reference's equation scan never fires on the finite corpus.

``reference_sampled_hom_build`` is the algorithm for infinite sources that
decides every square on the node's inputs (every element of a finite node,
the seeded sample of an infinite one) and then scans the hom equations on
the first 256 probe-pool pairs.  ``hom_build`` decides the squares on
generators when the data is exact and skips that scan; the two must agree
on the homs the library builds over infinite meadows, and on those homs
with ring maps changed so that a square fails.
"""

from __future__ import annotations

import functools
import itertools
import pathlib
import random
from dataclasses import dataclass

import pytest

from meadows import morphisms, rings
from meadows.enumeration import enumerate_meadow_hom_maps, enumerate_ring_homs
from meadows.errors import (
    MeadowError,
    NotAHomomorphism,
    NotLatticeHom,
    SquareDoesNotCommute,
    TargetMismatch,
    UnitNotPreserved,
)
from meadows.latfile import load_lattice_file
from meadows.meadow import Meadow, MeadowElement, PreMeadow, build_meadow
from meadows.morphisms import (
    FiniteSubset,
    MeadowIdeal,
    WholeRing,
    adjoin_error,
    adjoint_transpose,
    base_ring,
    hom_build,
    identity_hom,
    initial_hom,
    meadow_product,
    product_projections,
    quotient,
    radical,
)
from meadows.report import ValidationReport

import corpus

MAX_SIZE = 30


def scan_apply(h: rings.RingHom, v: rings.RingValue) -> rings.RingValue:
    rule = h.rule
    if isinstance(rule, rings.TableRule):
        for vin, vout in rule.graph:
            if vin == v:
                return vout
        raise rings.TableIncomplete(f"no table entry for {v}")
    if isinstance(rule, rings.ComposeRule):
        for stage in rule.stages:
            v = scan_apply(stage, v)
        return v
    return rings.hom_apply(h, v)


def reference_hom_build(src, dst, lattice_map, ring_maps):
    """(lattice_map, ring_maps) of the hom, checked element by element."""
    L, Ldst = src.lattice, dst.lattice
    for n in L.nodes:
        if n not in lattice_map:
            raise NotLatticeHom(f"node {n!r} has no image")
        if n not in ring_maps:
            raise NotLatticeHom(f"node {n!r} has no ring map")
        if lattice_map[n] not in Ldst.nodes:
            raise NotLatticeHom(f"{n!r} maps to unknown node {lattice_map[n]!r}")
    for a, b in itertools.product(L.nodes, repeat=2):
        if L.leq(a, b) and not Ldst.leq(lattice_map[a], lattice_map[b]):
            raise NotLatticeHom(f"order not preserved on ({a!r}, {b!r})")
        got = lattice_map[L.meet(a, b)]
        want = Ldst.meet(lattice_map[a], lattice_map[b])
        if got != want:
            raise NotLatticeHom(f"meet not preserved on ({a!r}, {b!r}): {got!r} != {want!r}")
    if lattice_map[L.top] != Ldst.top:
        raise NotLatticeHom("top must map to top")
    if lattice_map[L.bottom] != Ldst.bottom:
        raise NotLatticeHom("bottom must map to bottom")
    for z in L.nodes:
        h = ring_maps[z]
        if h.source != src.dl.ring_at[z] or h.target != dst.dl.ring_at[lattice_map[z]]:
            raise TargetMismatch(f"ring map at {z!r} has endpoints {h.source} -> {h.target}")
        sub = rings.hom_validate(h)
        if not sub.ok:
            names = [c.name for c in sub.failures()]
            if "preserves_one" in names:
                raise UnitNotPreserved(f"ring map at {z!r} does not fix 1")
            raise NotAHomomorphism(f"ring map at {z!r} fails: {sub.summary()}")
    for z in L.nodes:
        for z2 in L.nodes:
            if z2 == z or not L.leq(z2, z):
                continue
            down_then_map = rings.compose_homs(src.dl.transition(z, z2), ring_maps[z2])
            map_then_down = rings.compose_homs(
                ring_maps[z], dst.dl.transition(lattice_map[z], lattice_map[z2])
            )
            for v in rings.enumerate_ring(src.dl.ring_at[z]):
                if scan_apply(down_then_map, v) != scan_apply(map_then_down, v):
                    raise SquareDoesNotCommute(z, z2, v)

    def apply(x):
        return MeadowElement(lattice_map[x.node], scan_apply(ring_maps[x.node], x.value))

    if apply(src.one) != dst.one:
        raise UnitNotPreserved("1 is not sent to 1")
    elems = src.elements()
    for x, y in itertools.product(elems, elems):
        if apply(src.add(x, y)) != dst.add(apply(x), apply(y)):
            raise NotAHomomorphism(f"additivity fails at ({x}, {y})")
        if apply(src.mul(x, y)) != dst.mul(apply(x), apply(y)):
            raise NotAHomomorphism(f"multiplicativity fails at ({x}, {y})")
    return dict(lattice_map), dict(ring_maps)


def unfrozen(m: Meadow) -> Meadow:
    return Meadow(m.dl, m.status)


def outcome(build, src, dst, lattice_map, ring_maps):
    try:
        got = build(src, dst, lattice_map, ring_maps)
    except MeadowError as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):
        return got
    return got.lattice_map, got.ring_maps


def lift(src, dst, mapping):
    """(lattice_map, ring_maps) of a carrier map, or None if a component splits."""
    by_node: dict = {}
    for x in src.elements():
        by_node.setdefault(x.node, []).append(x)
    lattice_map, ring_maps = {}, {}
    for z, elems in by_node.items():
        images = {mapping[x].node for x in elems}
        if len(images) != 1:
            return None
        lattice_map[z] = images.pop()
        ring_maps[z] = rings.table_hom(
            src.dl.ring_at[z],
            dst.dl.ring_at[lattice_map[z]],
            [(x.value, mapping[x].value) for x in elems],
        )
    return lattice_map, ring_maps


def changed_image(src, dst, mapping, rng, x=None):
    """The map with x's image (a random x's by default) moved within its node, if it can be."""
    if x is None:
        x = rng.choice(src.elements())
    others = [y for y in dst.elements() if y.node == mapping[x].node and y != mapping[x]]
    if not others:
        return None
    return {**mapping, x: rng.choice(others)}


def candidates(src, dst, seed):
    """Candidate (lattice_map, ring_maps) for hom_build between two meadows.

    Every hom map, each with one image changed, each with one node's ring
    map replaced by another of the first three unital ring homs, and each
    with one node sent elsewhere with the first ring hom there.
    """
    rng = random.Random(seed)
    seen = set()
    for lattice_map, ring_maps in _perturbed(src, dst, rng):
        key = (frozenset(lattice_map.items()), frozenset(ring_maps.items()))
        if key not in seen:
            seen.add(key)
            yield lattice_map, ring_maps


ring_homs = functools.lru_cache(maxsize=None)(enumerate_ring_homs)


def _perturbed(src, dst, rng):
    for mapping in enumerate_meadow_hom_maps(src, dst):
        lattice_map, ring_maps = lift(src, dst, mapping)
        yield lattice_map, ring_maps
        moved = changed_image(src, dst, mapping, rng)
        if moved is not None and (lifted := lift(src, dst, moved)) is not None:
            yield lifted
        for z in src.lattice.nodes:
            desc = src.dl.ring_at[z]
            for g in ring_homs(desc, dst.dl.ring_at[lattice_map[z]])[:3]:
                if g != ring_maps[z]:
                    yield lattice_map, {**ring_maps, z: g}
            for w in dst.lattice.nodes:
                if w != lattice_map[z]:
                    homs = ring_homs(desc, dst.dl.ring_at[w])
                    if homs:
                        yield {**lattice_map, z: w}, {**ring_maps, z: homs[0]}


def small_meadows() -> dict:
    return {name: m for name, m in corpus.finite_meadows() if m.size() <= MAX_SIZE}


# the reference's checks that follow from the ones before them on a finite source
EQUATION_FAILURES = {"additivity fails", "multiplicativity fails", "1 is not sent to 1"}


def compare(src, dst, cases) -> set:
    """Build every case both ways; "hom", or each exception class and message head seen."""
    ref_src, ref_dst = unfrozen(src), unfrozen(dst)
    kinds = set()
    for lattice_map, ring_maps in cases:
        want = outcome(reference_hom_build, ref_src, ref_dst, lattice_map, ring_maps)
        got = outcome(hom_build, src, dst, lattice_map, ring_maps)
        assert got == want, lattice_map
        if isinstance(want[0], type):
            head = want[1].split(" at ")[0]
            assert head not in EQUATION_FAILURES, want
            kinds |= {want[0], head}
        else:
            kinds.add("hom")
    return kinds


@pytest.mark.parametrize("src_name", sorted(small_meadows()))
def test_hom_build_matches_reference(src_name):
    meadows = small_meadows()
    src = meadows[src_name]
    for k, dst in enumerate(meadows.values()):
        compare(src, dst, candidates(src, dst, seed=k))


def test_candidates_reach_the_square_check():
    m = small_meadows()["product_z2_z2"]
    kinds = compare(m, m, candidates(m, m, seed=0))
    assert {"hom", SquareDoesNotCommute, NotAHomomorphism, NotLatticeHom} <= kinds


@pytest.mark.parametrize("src_name", ["z4", "z6", "z2xz2", "chain_z4_z2", "z2_diamond"])
def test_elementwise_checks_match_reference_past_the_ring_checks(src_name):
    # A hom with one image moved is no hom.  Both builds refuse it at a
    # ring-map check or a square, before the reference's equation scan.
    meadows = small_meadows()
    src = meadows[src_name]
    rng = random.Random(src_name)
    kinds = set()
    for dst in meadows.values():
        for mapping in enumerate_meadow_hom_maps(src, dst):
            for x in [src.one] + [rng.choice(src.elements()) for _ in range(3)]:
                moved = changed_image(src, dst, mapping, rng, x)
                if moved is not None and (lifted := lift(src, dst, moved)) is not None:
                    case = compare(src, dst, [lifted])
                    assert case & {"ring map", SquareDoesNotCommute}, case
                    kinds |= case
    assert {UnitNotPreserved, NotAHomomorphism} <= kinds


def test_multiplicativity_witness_matches_reference():
    # x -> x0 + x1 + x2 on Z2^3 is additive and fixes 1 but is not
    # multiplicative: its ring map at the top is refused for that
    meadows = small_meadows()
    src, dst = meadows["z2cube"], meadows["z2"]
    mapping = {
        x: dst.a if x.node == "a" else dst.element("top", sum(x.value.payload))
        for x in src.elements()
    }
    case = lift(src, dst, mapping)
    assert compare(src, dst, [case]) == {NotAHomomorphism, "ring map"}
    _, message = outcome(hom_build, src, dst, *case)
    assert message.startswith("ring map at 'top' fails: ") and "multiplicative" in message


def passing_report(h, tables=None):
    return ValidationReport(subject=str(h))


@dataclass(frozen=True)
class Square(rings.HomRule):
    """x -> x^2 on Z: fixes 0 and 1 and is multiplicative, but not additive."""

    def compile(self, h):
        return lambda p: p * p


def test_equation_scan_on_an_infinite_source_names_the_first_failing_pair(monkeypatch):
    # with the ring-map checks off, only the sampled hom equations can refuse
    # a non-hom out of an infinite source
    monkeypatch.setattr(rings, "hom_proof", lambda h: None)
    monkeypatch.setattr(rings, "hom_validate", passing_report)
    src = adjoin_error(rings.Z)
    dst = adjoin_error(rings.Z)
    ring_maps = {"top": rings.RingHom(rings.Z, rings.Z, Square()), "a": rings.identity_hom(rings.ZERO)}

    def square(x):
        return x if x.node == "a" else dst.element("top", x.value.payload**2)

    pool = src.probe_pool()
    x, y = next(
        (x, y)
        for x, y in itertools.islice(itertools.product(pool, pool), 256)
        if square(src.add(x, y)) != dst.add(square(x), square(y))
    )
    with pytest.raises(NotAHomomorphism) as info:
        hom_build(src, dst, {"top": "top", "a": "a"}, ring_maps)
    assert str(info.value) == f"additivity fails at ({x}, {y})"


def test_hom_build_tabulates_no_carrier(monkeypatch):
    def refuse(m):
        raise AssertionError("the carrier tables were built")

    monkeypatch.setattr(PreMeadow, "freeze_tables", refuse)
    # on fresh finite meadows, so no earlier call built the tables
    for _, m in corpus.finite_meadows():
        identity_hom(unfrozen(m))
    m2 = unfrozen(small_meadows()["z2"])
    product = meadow_product(m2, m2)
    left, right = product_projections(product, m2, m2)
    assert left.target is m2 and right.target is m2
    into = adjoint_transpose(rings.identity_hom(base_ring(product)), product)
    assert into.target is product
    m6 = unfrozen(small_meadows()["z6"])
    evens = FiniteSubset(v for v in rings.enumerate_ring(rings.Mod(6)) if v.payload % 2 == 0)
    assert quotient(m6, MeadowIdeal(m6, {"top": evens, "a": WholeRing()})).quotient.size() == 3


# -- infinite sources: squares on generators against the sampled scan ----------

ROOT = pathlib.Path(__file__).resolve().parent.parent
EQUATION_PAIRS = 256


def reference_sampled_hom_build(src, dst, lattice_map, ring_maps):
    """(lattice_map, ring_maps) of the hom; squares on every input, then the sampled equations."""
    L, Ldst = src.lattice, dst.lattice
    for n in L.nodes:
        if n not in lattice_map:
            raise NotLatticeHom(f"node {n!r} has no image")
        if n not in ring_maps:
            raise NotLatticeHom(f"node {n!r} has no ring map")
        if lattice_map[n] not in Ldst.nodes:
            raise NotLatticeHom(f"{n!r} maps to unknown node {lattice_map[n]!r}")
    for a, b in itertools.product(L.nodes, repeat=2):
        if L.leq(a, b) and not Ldst.leq(lattice_map[a], lattice_map[b]):
            raise NotLatticeHom(f"order not preserved on ({a!r}, {b!r})")
        got = lattice_map[L.meet(a, b)]
        want = Ldst.meet(lattice_map[a], lattice_map[b])
        if got != want:
            raise NotLatticeHom(f"meet not preserved on ({a!r}, {b!r}): {got!r} != {want!r}")
    if lattice_map[L.top] != Ldst.top:
        raise NotLatticeHom("top must map to top")
    if lattice_map[L.bottom] != Ldst.bottom:
        raise NotLatticeHom("bottom must map to bottom")
    for z in L.nodes:
        h = ring_maps[z]
        if h.source != src.dl.ring_at[z] or h.target != dst.dl.ring_at[lattice_map[z]]:
            raise TargetMismatch(f"ring map at {z!r} has endpoints {h.source} -> {h.target}")
        sub = rings.hom_validate(h)
        if not sub.ok:
            names = [c.name for c in sub.failures()]
            if "preserves_one" in names:
                raise UnitNotPreserved(f"ring map at {z!r} does not fix 1")
            raise NotAHomomorphism(f"ring map at {z!r} fails: {sub.summary()}")
    for z in L.nodes:
        desc = src.dl.ring_at[z]
        if rings.is_finite(desc):
            inputs = rings.enumerate_ring(desc)
        else:
            inputs, _ = rings._validation_inputs(desc)
        for z2 in L.nodes:
            if z2 == z or not L.leq(z2, z):
                continue
            down_then_map = rings.compose_homs(src.dl.transition(z, z2), ring_maps[z2])
            map_then_down = rings.compose_homs(
                ring_maps[z], dst.dl.transition(lattice_map[z], lattice_map[z2])
            )
            for v in inputs:
                if scan_apply(down_then_map, v) != scan_apply(map_then_down, v):
                    raise SquareDoesNotCommute(z, z2, v)

    def apply(x):
        return MeadowElement(lattice_map[x.node], scan_apply(ring_maps[x.node], x.value))

    pool = src.probe_pool()
    for x, y in itertools.islice(itertools.product(pool, pool), EQUATION_PAIRS):
        if apply(src.add(x, y)) != dst.add(apply(x), apply(y)):
            raise NotAHomomorphism(f"additivity fails at ({x}, {y})")
        if apply(src.mul(x, y)) != dst.mul(apply(x), apply(y)):
            raise NotAHomomorphism(f"multiplicativity fails at ({x}, {y})")
    return dict(lattice_map), dict(ring_maps)


def infinite_meadows() -> dict:
    out = {name: build_meadow(load_lattice_file(ROOT / "lattices" / f"{name}.json")) for name in ("chain_z_q", "z", "glue_zp_towers")}
    out["adjoin_error(Q)"] = adjoin_error(rings.Q)
    out["adjoin_error(Z3[x])"] = adjoin_error(rings.Poly(rings.Mod(3)))
    f3x = rings.Poly(rings.Mod(3))
    out["chain_z3x_z3"] = build_meadow(corpus.chain(f3x, rings.poly_eval_at(f3x, 0), rings.Mod(3)))
    return out


def recorded_builds(m) -> list:
    """The (src, dst, lattice_map, ring_maps) that the library's hom constructions pass to hom_build."""
    calls = []
    real = morphisms.hom_build

    def record(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(morphisms, "hom_build", record)
        identity_hom(m)
        initial_hom(m)
        adjoint_transpose(rings.identity_hom(base_ring(m)), m)
        quotient(m, radical(m))
    return calls


@dataclass(frozen=True)
class Unproved(rings.HomRule):
    """The map of ``hom`` under a rule that proves nothing, so data using it is not exact."""

    hom: rings.RingHom

    def compile(self, h):
        return self.hom.fn


def unproved(h: rings.RingHom) -> rings.RingHom:
    return rings.RingHom(h.source, h.target, Unproved(h))


def other_ring_homs(h: rings.RingHom) -> list:
    """Ring homs with h's endpoints that differ from it on a generator, where easy to name."""
    desc = h.source
    if h.target != desc:
        return []
    if isinstance(desc, rings.Poly):  # x -> c, for each constant c
        points = [rings.from_int(desc.base, c).payload for c in range(3)]
        return [rings.compose_homs(rings.poly_eval_at(desc, c), rings.constant_embed(desc)) for c in points]
    if isinstance(desc, rings.Product) and len(desc.factors) > 1 and desc.factors[0] == desc.factors[1]:
        order = [1, 0, *range(2, len(desc.factors))]  # swap the first two coordinates
        return [rings.pair_hom([rings.project(desc, k) for k in order])]
    return []


def perturbed(src, dst, lattice_map, ring_maps):
    """The hom's data with one ring map changed, alone or with another made unproved."""
    for z in src.lattice.nodes:
        for g in other_ring_homs(ring_maps[z]):
            yield {**ring_maps, z: g}
            yield {**ring_maps, z: unproved(g)}
            for w in src.lattice.nodes:
                if w != z and not rings.is_finite(src.dl.ring_at[w]):
                    yield {**ring_maps, z: g, w: unproved(ring_maps[w])}


def compare_sampled(src, dst, lattice_map, ring_maps):
    want = outcome(reference_sampled_hom_build, src, dst, lattice_map, ring_maps)
    got = outcome(hom_build, src, dst, lattice_map, ring_maps)
    assert got == want, (lattice_map, ring_maps)
    return want[0] if isinstance(want[0], type) else "hom"


INFINITE = infinite_meadows()


@pytest.mark.parametrize("name", sorted(INFINITE))
def test_hom_build_matches_the_sampled_reference_on_infinite_meadows(name):
    kinds = set()
    builds = recorded_builds(INFINITE[name])
    assert not builds[0][0].is_finite()
    for src, dst, lattice_map, ring_maps in builds:
        kinds.add(compare_sampled(src, dst, lattice_map, ring_maps))
        for changed in perturbed(src, dst, lattice_map, ring_maps):
            kinds.add(compare_sampled(src, dst, lattice_map, changed))
    assert "hom" in kinds


def test_perturbed_ring_maps_reach_failing_squares_on_exact_and_sampled_data():
    # glue_zp_towers: swapping two coordinates at the Z3^3 node breaks the
    # square down to Z3; the first input that shows it, (0, 1, 0), is not
    # the first generator that does, (1, 0, 0)
    m = INFINITE["glue_zp_towers"]
    src, dst, lattice_map, ring_maps = recorded_builds(m)[0]
    (swap,) = other_ring_homs(ring_maps["p3"])
    for changed in ({**ring_maps, "p3": swap}, {**ring_maps, "p3": swap, "px": unproved(ring_maps["px"])}):
        assert compare_sampled(src, dst, lattice_map, changed) is SquareDoesNotCommute
        with pytest.raises(SquareDoesNotCommute) as info:
            hom_build(src, dst, lattice_map, changed)
        assert info.value.witness == m.element("p3", (0, 1, 0)).value
    # Z3[x] over Z3 by evaluation at 0: x -> 1 at the top breaks the square at x
    m = INFINITE["chain_z3x_z3"]
    src, dst, lattice_map, ring_maps = recorded_builds(m)[0]
    for g in other_ring_homs(ring_maps["n0"])[1:]:
        with pytest.raises(SquareDoesNotCommute) as info:
            hom_build(src, dst, lattice_map, {**ring_maps, "n0": g})
        assert info.value.witness == rings.RingValue(src.dl.ring_at["n0"], (0, 1))


def test_identity_hom_on_a_large_finite_ring_lists_no_element():
    m = adjoin_error(rings.Mod(20011))

    def refuse(desc):
        raise AssertionError(f"{desc} was listed")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "enumerate_ring", refuse)
        f = identity_hom(m)
    assert f.lattice_map == {"top": "top", "a": "a"}
