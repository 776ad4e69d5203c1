"""Homs, kernels, ideals, quotients, congruences and the functor pair."""

import pytest

from meadows import axioms, rings
from meadows.errors import (
    IdealIsWhole,
    IdealNotKilled,
    NotAHomomorphism,
    NotLatticeHom,
    NotSurjective,
    SquareDoesNotCommute,
    TargetMismatch,
    UnitNotPreserved,
    ZeroRingInput,
)
from meadows.enumeration import (
    enumerate_meadow_hom_maps,
    enumerate_meadow_ideals,
    enumerate_ring_homs,
    ideal_leq,
    maximal_ideals,
)
from meadows.meadow import build_meadow
from meadows.morphisms import (
    FiniteSubset,
    MeadowIdeal,
    NZ,
    WholeRing,
    ZeroIdeal,
    adjoin_error,
    adjoint_transpose,
    base_ring,
    base_ring_hom,
    adjoin_error_hom,
    congruence_quotient,
    glue,
    hom_build,
    hom_from_carrier_map,
    hom_is_injective,
    identity_hom,
    ideal_validate,
    induced_hom,
    initial_hom,
    kernel,
    meadow_product,
    product_projections,
    quotient,
    radical,
)

import corpus

Z2 = rings.Mod(2)
Z2Z2 = rings.Product((Z2, Z2))


@pytest.fixture(scope="module")
def MZ():
    return adjoin_error(rings.Z)


@pytest.fixture(scope="module")
def MQ():
    return adjoin_error(rings.Q)


@pytest.fixture(scope="module")
def MP():
    return adjoin_error(Z2Z2)


@pytest.fixture(scope="module")
def M2():
    return adjoin_error(Z2)


@pytest.fixture(scope="module")
def pi1(MP, M2):
    return hom_build(
        MP,
        M2,
        {"top": "top", "a": "a"},
        {"top": rings.project(Z2Z2, 0), "a": rings.identity_hom(rings.ZERO)},
    )


@pytest.fixture(scope="module")
def inclusion(MZ, MQ):
    return hom_build(
        MZ,
        MQ,
        {"top": "top", "a": "a"},
        {"top": rings.include_rationals(), "a": rings.identity_hom(rings.ZERO)},
    )


# -- hom construction and application -----------------------------------------


def test_inclusion_hom_does_not_commute_with_inverse(MZ, MQ, inclusion):
    five = MZ.element("top", 5)
    assert MZ.inverse(five) == MZ.a
    assert inclusion.apply(MZ.inverse(five)) == MQ.a
    assert MQ.inverse(inclusion.apply(five)) == MQ.element("top", "1/5")


def test_identity_hom_fixes_everything(M2):
    ident = identity_hom(M2)
    for x in M2.elements():
        assert ident.apply(x) == x


def test_projection_hom_examples(pi1, MP, M2):
    assert pi1.apply(MP.element("top", [0, 1])) == M2.element("top", 0)
    assert pi1.apply(MP.element("top", [1, 0])) == M2.element("top", 1)
    assert pi1.apply(MP.a) == M2.a


def test_hom_apply_fixes_zero_and_error(inclusion, MZ, MQ):
    assert inclusion.apply(MZ.element("top", 5)) == MQ.element("top", 5)
    assert inclusion.apply(MZ.a) == MQ.a
    assert inclusion.apply(MZ.zero) == MQ.zero


def test_bad_lattice_map_rejected(MZ, M2):
    with pytest.raises(NotLatticeHom):
        hom_build(
            M2,
            M2,
            {"top": "a", "a": "a"},
            {"top": rings.collapse_hom(Z2), "a": rings.identity_hom(rings.ZERO)},
        )


def test_ring_map_not_fixing_one_is_rejected(M2, MP):
    half_unit = rings.table_hom(Z2, Z2Z2, [(0, (0, 0)), (1, (1, 0))])
    with pytest.raises(UnitNotPreserved, match="ring map at 'top' does not fix 1"):
        hom_build(M2, MP, {"top": "top", "a": "a"}, {"top": half_unit, "a": rings.identity_hom(rings.ZERO)})


def test_ring_map_that_is_not_additive_is_rejected(M2):
    M4 = adjoin_error(rings.Mod(4))
    squash = rings.table_hom(rings.Mod(4), Z2, [(0, 0), (1, 1), (2, 1), (3, 1)])
    with pytest.raises(NotAHomomorphism, match="ring map at 'top' fails"):
        hom_build(M4, M2, {"top": "top", "a": "a"}, {"top": squash, "a": rings.identity_hom(rings.ZERO)})


def test_swap_at_the_lower_node_only_breaks_the_square():
    m = build_meadow(corpus.chain(Z2Z2, rings.identity_hom(Z2Z2), Z2Z2))
    swap = rings.table_hom(Z2Z2, Z2Z2, [((x, y), (y, x)) for x in (0, 1) for y in (0, 1)])
    ring_maps = {"n0": rings.identity_hom(Z2Z2), "n1": swap, "a": rings.identity_hom(rings.ZERO)}
    with pytest.raises(SquareDoesNotCommute) as exc:
        hom_build(m, m, {n: n for n in m.lattice.nodes}, ring_maps)
    assert (exc.value.upper, exc.value.lower) == ("n0", "n1")
    assert exc.value.witness.payload[0] != exc.value.witness.payload[1]


# -- injectivity ---------------------------------------------------------------


def test_inclusion_is_injective(inclusion):
    assert hom_is_injective(inclusion) == (True, None)


def test_collapsing_two_integer_copies_is_not_injective(MZ):
    # two stacked copies of the integers, both mapped onto one copy
    lat_nodes = ["s0", "s1", "a"]
    src = build_meadow(
        corpus.chain(rings.Z, rings.identity_hom(rings.Z), rings.Z), mode="verify"
    )
    f = hom_build(
        src,
        MZ,
        {"n0": "top", "n1": "top", "a": "a"},
        {
            "n0": rings.identity_hom(rings.Z),
            "n1": rings.identity_hom(rings.Z),
            "a": rings.identity_hom(rings.ZERO),
        },
    )
    verdict, witness = hom_is_injective(f)
    assert verdict is False
    assert witness == ("n0", "n1")  # two nodes collide


def test_projection_not_injective_with_witness(pi1):
    verdict, witness = hom_is_injective(pi1)
    assert verdict is False
    x, y = witness
    assert x != y and pi1.apply(x) == pi1.apply(y)


# -- kernels ---------------------------------------------------------------------


def test_kernel_of_projection(pi1, MP):
    got = kernel(pi1, "R")
    expected = {MP.element("top", [0, 0]), MP.element("top", [0, 1]), MP.a}
    assert got == expected


def test_kernel_at_unreached_zero_is_empty():
    # the target's lower component never meets the image, so that kernel is empty
    src = adjoin_error(Z2)
    chain2 = build_meadow(corpus.chain(Z2, rings.identity_hom(Z2), Z2), mode="verify")
    g = hom_build(
        src,
        chain2,
        {"top": "n0", "a": "a"},
        {"top": rings.identity_hom(Z2), "a": rings.identity_hom(rings.ZERO)},
    )
    assert kernel(g, ("at", chain2.element("n1", 0))) == frozenset()
    assert kernel(g, ("at", chain2.element("n0", 0))) == {src.element("top", 0)}


def test_kernel_of_identity_is_component_zeros(M2):
    ident = identity_hom(M2)
    assert kernel(ident, "R") == {M2.zero, M2.a}


def test_kernel_a_kind(pi1, MP):
    assert kernel(pi1, "a") == {MP.a}


# -- ideals ------------------------------------------------------------------------


def z6_even_ideal(m):
    evens = frozenset(rings.ring_value(rings.Mod(6), k) for k in (0, 2, 4))
    return MeadowIdeal(m, {"top": FiniteSubset(evens), "a": WholeRing()})


def test_degenerate_ideal_specs_normalize(M2, MZ):
    whole = MeadowIdeal(M2, {"top": FiniteSubset(rings.enumerate_ring(Z2)), "a": WholeRing()})
    assert whole.spec_at("top") == WholeRing()
    assert whole.members_by_node("top") == frozenset(rings.enumerate_ring(Z2))
    zero = MeadowIdeal(M2, {"top": FiniteSubset({rings.zero_value(Z2)})})
    assert zero.spec_at("top") == ZeroIdeal()
    assert zero.spec_at("a") == ZeroIdeal()  # nodes left out default to the zero ideal
    assert MeadowIdeal(MZ, {"top": NZ(1), "a": WholeRing()}).spec_at("top") == WholeRing()
    assert MeadowIdeal(MZ, {"top": NZ(2), "a": WholeRing()}).spec_at("top") == NZ(2)


def test_radical_validates():
    for name, m in corpus.finite_meadows():
        assert ideal_validate(radical(m)).ok, name


def test_subset_missing_zero_fails():
    m = adjoin_error(rings.Mod(6))
    bad = MeadowIdeal(
        m,
        {"top": FiniteSubset(frozenset({rings.ring_value(rings.Mod(6), 2)})), "a": WholeRing()},
    )
    report = ideal_validate(bad)
    assert not report.ok
    assert any("contains_zero" in c.name for c in report.failures())


def test_example_collapse_ideal_validates():
    from meadows.latfile import load_ideal_file, load_lattice_file

    m = build_meadow(load_lattice_file("lattices/example_4_14.json"), mode="verify")
    ideal = load_ideal_file("lattices/example_4_14_ideal.json", m)
    assert ideal_validate(ideal).ok


def test_nz_ideal_on_chain():
    N = build_meadow(corpus.chain_z_q(), mode="verify")
    ideal = MeadowIdeal(N, {"n0": NZ(6), "n1": WholeRing(), "a": WholeRing()})
    assert ideal_validate(ideal).ok
    bad = MeadowIdeal(N, {"n0": NZ(6), "n1": ZeroIdeal(), "a": WholeRing()})
    assert not ideal_validate(bad).ok  # 6Z does not land in the zero ideal of Q


def test_radical_shape():
    m = adjoin_error(rings.Mod(6))
    r = radical(m)
    assert isinstance(r.spec_at("top"), ZeroIdeal)
    assert isinstance(r.spec_at("a"), WholeRing)


def test_radical_collapses_lower_chain():
    N = build_meadow(corpus.chain_z_q(), mode="verify")
    q = quotient(N, radical(N))
    assert q.collapsed == {"n1", "a"}
    assert set(q.quotient.lattice.nodes) == {"n0", "a"}
    assert q.quotient.dl.ring_at["n0"] == rings.Z
    assert q.is_meadow  # two-node chain


# -- quotients ----------------------------------------------------------------------


def test_quotient_z6_by_evens_matches_coset_oracle():
    m = adjoin_error(rings.Mod(6))
    q = quotient(m, z6_even_ideal(m))
    assert q.quotient.dl.ring_at["top"] == rings.Mod(2)
    assert q.is_meadow
    # brute-force coset arithmetic oracle on {0,2,4}-cosets
    rho = q.projection
    for x in m.elements():
        for y in m.elements():
            assert rho.apply(m.add(x, y)) == q.quotient.add(rho.apply(x), rho.apply(y))
            assert rho.apply(m.mul(x, y)) == q.quotient.mul(rho.apply(x), rho.apply(y))


def test_example_4_14_collapse_nodes():
    from meadows.latfile import load_ideal_file, load_lattice_file

    m = build_meadow(load_lattice_file("lattices/example_4_14.json"), mode="verify")
    ideal = load_ideal_file("lattices/example_4_14_ideal.json", m)
    q = quotient(m, ideal)
    assert set(q.quotient.lattice.nodes) == {"M0", "M1", "M5", "a"}
    assert q.collapsed == {"M2", "M3", "M4", "M6", "a"}
    assert q.is_meadow
    # everything in the collapsed branch lands on the error element
    assert q.projection.apply(m.element("M3", 1)) == q.quotient.a


def test_quotient_by_whole_is_refused():
    m = adjoin_error(Z2)
    whole = MeadowIdeal(m, {"top": WholeRing(), "a": WholeRing()})
    with pytest.raises(IdealIsWhole):
        quotient(m, whole)


def test_quotient_by_radical_satisfies_nvl_everywhere():
    for name, m in corpus.finite_meadows():
        q = quotient(m, radical(m))
        assert q.is_meadow, name
        assert axioms.check_axioms(q.quotient, "NVL", exhaustive=True).ok, name


# -- induced homs -----------------------------------------------------------------


def test_induced_hom_from_projection_kernel(pi1, MP, M2):
    ker = kernel(pi1, "R")
    by_node = {}
    for x in ker:
        by_node.setdefault(x.node, set()).add(x.value)
    ideal = MeadowIdeal(
        MP, {node: FiniteSubset(frozenset(vals)) for node, vals in by_node.items()}
    )
    assert ideal_validate(ideal).ok
    tilde = induced_hom(pi1, ideal)
    # composed with the projection it recovers the original map
    q = quotient(MP, ideal)
    for x in MP.elements():
        assert tilde.apply(q.projection.apply(x)) == pi1.apply(x)
    # bijective onto the 3-element target
    images = {tilde.apply(y) for y in tilde.source.elements()}
    assert images == set(M2.elements())


def test_induced_hom_requires_killing_the_ideal(inclusion, MZ):
    ideal = MeadowIdeal(MZ, {"top": NZ(6), "a": WholeRing()})
    with pytest.raises(IdealNotKilled):
        induced_hom(inclusion, ideal)


def test_induced_hom_identity_zero_ideal(M2):
    ident = identity_hom(M2)
    zero_ideal = MeadowIdeal(M2, {"top": ZeroIdeal(), "a": WholeRing()})
    tilde = induced_hom(ident, zero_ideal)
    q = quotient(M2, zero_ideal)
    for x in M2.elements():
        assert tilde.apply(q.projection.apply(x)) == x


def test_induced_hom_is_unique_among_enumerated_candidates(pi1, MP, M2):
    ker = kernel(pi1, "R")
    by_node = {}
    for x in ker:
        by_node.setdefault(x.node, set()).add(x.value)
    ideal = MeadowIdeal(
        MP, {node: FiniteSubset(frozenset(vals)) for node, vals in by_node.items()}
    )
    q = quotient(MP, ideal)
    rho = q.projection
    candidates = [
        hom_from_carrier_map(q.quotient, M2, mapping)
        for mapping in enumerate_meadow_hom_maps(q.quotient, M2)
    ]
    solutions = [
        g
        for g in candidates
        if all(g.apply(rho.apply(x)) == pi1.apply(x) for x in MP.elements())
    ]
    assert len(solutions) == 1


# -- congruences -------------------------------------------------------------------


def test_congruence_classes_of_projection(pi1, MP, M2):
    cc = congruence_quotient(pi1)
    got = {frozenset(c) for c in cc.classes}
    expected = {
        frozenset({MP.element("top", [0, 0]), MP.element("top", [0, 1])}),
        frozenset({MP.element("top", [1, 1]), MP.element("top", [1, 0])}),
        frozenset({MP.a}),
    }
    assert got == expected


def test_congruence_inverse_mismatch_note(pi1, MP, M2):
    # the class of (1,0) maps to 1, whose inverse is 1, yet (1,0) inverts to a
    cc = congruence_quotient(pi1)
    one_zero = MP.element("top", [1, 0])
    cls = cc.classes[cc.class_of[one_zero]]
    assert MP.inverse(one_zero) == MP.a
    assert M2.inverse(cc.images[cc.class_of[one_zero]]) == M2.element("top", 1)


def test_congruence_identity_gives_singletons(M2):
    cc = congruence_quotient(identity_hom(M2))
    assert all(len(c) == 1 for c in cc.classes)


def test_congruence_requires_surjectivity(M2):
    chain2 = build_meadow(corpus.chain(Z2, rings.identity_hom(Z2), Z2), mode="verify")
    g = hom_build(
        M2,
        chain2,
        {"top": "n0", "a": "a"},
        {"top": rings.identity_hom(Z2), "a": rings.identity_hom(rings.ZERO)},
    )
    with pytest.raises(NotSurjective):
        congruence_quotient(g)


# -- functors -----------------------------------------------------------------------


def test_adjoin_error_carrier_size():
    assert adjoin_error(rings.Mod(6)).size() == 7


def test_adjoin_error_refuses_zero_ring():
    with pytest.raises(ZeroRingInput):
        adjoin_error(rings.ZERO)


def test_base_ring_round_trip():
    for desc in (rings.Z, rings.Mod(6), Z2Z2):
        assert base_ring(adjoin_error(desc)) == desc
    N = build_meadow(corpus.chain_z_q(), mode="verify")
    assert base_ring(N) == rings.Z


def test_functor_actions_compose():
    h = rings.mod_to_mod(6, 2)
    f = adjoin_error_hom(h)
    assert base_ring_hom(f) == h


def test_adjoint_transpose_lands_in_top(M2, MP):
    diag = rings.table_hom(
        Z2, Z2Z2, [(0, [0, 0]), (1, [1, 1])]
    )
    f = adjoint_transpose(diag, MP)
    src = f.source
    assert f.apply(src.element("top", 1)) == MP.element("top", [1, 1])
    assert f.apply(src.a) == MP.a


def test_adjoint_transpose_target_mismatch(M2):
    h = rings.mod_to_mod(6, 2)  # lands in Z2 but claims source Z6
    with pytest.raises(TargetMismatch):
        adjoint_transpose(rings.reduce_mod(3), M2)


def test_adjunction_counts_small():
    for R in (Z2, rings.Mod(3), Z2Z2):
        for name in ("z2", "z4", "z6", "z2xz2"):
            M = dict(corpus.finite_meadows())[name]
            n_ring = len(enumerate_ring_homs(R, base_ring(M)))
            n_meadow = len(enumerate_meadow_hom_maps(adjoin_error(R), M))
            assert n_ring == n_meadow, (R, name)


def test_initial_hom_forced_values():
    M5 = adjoin_error(rings.Mod(5))
    f = initial_hom(M5)
    src = f.source
    assert f.apply(src.element("top", 7)) == M5.element("top", 2)
    assert f.apply(src.a) == M5.a
    assert f.apply(src.zero) == M5.zero


def test_initial_hom_unique_on_probe_set():
    M5 = adjoin_error(rings.Mod(5))
    f = initial_hom(M5)
    src = f.source
    # forced by f(1) = 1 on every probe integer
    for k in range(-10, 11):
        assert f.apply(src.element("top", k)) == M5.element("top", k % 5)


# -- products and gluing ---------------------------------------------------------


def test_product_lattice_shape(M2):
    P = meadow_product(M2, M2)
    assert len(P.lattice.nodes) == 4
    assert P.size() == 9
    zero_coord_nodes = [
        n for n in P.lattice.nodes if n != P.lattice.bottom and rings.ZERO in
        (M2.dl.ring_at[n[0]], M2.dl.ring_at[n[1]])
    ]
    assert len(zero_coord_nodes) == 2  # the (a, x) and (x, a) components survive


def test_product_operations_are_componentwise(M2):
    P = meadow_product(M2, M2)
    x = P.element(("top", "top"), [1, 0])
    y = P.element(("top", "top"), [1, 1])
    assert P.add(x, y) == P.element(("top", "top"), [0, 1])
    assert P.mul(x, y) == P.element(("top", "top"), [1, 0])


def test_product_projections_are_homs(M2):
    P = meadow_product(M2, M2)
    pi_left, pi_right = product_projections(P, M2, M2)
    x = P.element(("top", "top"), [1, 0])
    assert pi_left.apply(x) == M2.element("top", 1)
    assert pi_right.apply(x) == M2.element("top", 0)
    # node with a collapsed right coordinate projects to the error element
    y = P.element(("top", "a"), 1)
    assert pi_right.apply(y) == M2.a
    assert pi_left.apply(y) == M2.element("top", 1)


def test_product_passes_cm(M2):
    P = meadow_product(M2, M2)
    assert axioms.check_axioms(P, "CM", exhaustive=True).ok


def test_glue_shape_and_cross_terms(M2):
    G = glue(M2, M2, 2)
    ring_nodes = [n for n in G.lattice.nodes if not isinstance(G.dl.ring_at[n], rings.Zero)]
    assert len(ring_nodes) == 3
    x = G.element(("m", "top"), 1)
    y = G.element(("n", "top"), 1)
    assert G.add(x, y) == G.a
    assert G.mul(x, y) == G.a
    assert axioms.check_axioms(G, "CM", exhaustive=True).ok


def test_glue_characteristic_mismatch(M2):
    M3 = adjoin_error(rings.Mod(3))
    from meadows.errors import CharacteristicMismatch

    with pytest.raises(CharacteristicMismatch):
        glue(M2, M3, 2)
    with pytest.raises(CharacteristicMismatch):
        glue(M2, M2, 4)


def test_glue_of_poly_and_product_towers():
    from meadows.latfile import load_lattice_file

    dl = load_lattice_file("lattices/glue_zp_towers.json")
    G = build_meadow(dl, mode="verify")
    x = G.element("px", [0, 1])
    assert G.inverse(x) == G.a  # the variable is not a unit anywhere
    assert G.inverse(G.element("zp", 2)) == G.element("zp", 2)  # 2*2 = 1 mod 3


def test_glue_builds_the_towers_programmatically():
    z3 = rings.Mod(3)
    left = build_meadow(corpus.single(rings.Poly(z3, "x")), mode="verify")
    right = build_meadow(
        corpus.chain(
            rings.Product((z3, z3, z3)),
            rings.pair_hom((rings.project(rings.Product((z3, z3, z3)), 0),
                            rings.project(rings.Product((z3, z3, z3)), 1))),
            rings.Product((z3, z3)),
            rings.project(rings.Product((z3, z3)), 0),
            z3,
        ),
        mode="verify",
    )
    G = glue(left, right, 3)
    # cross terms collapse, branch arithmetic survives
    p = G.element(("m", "top"), [1, 1])  # 1 + x over Z3
    t = G.element(("n", "n0"), [1, 0, 2])
    assert G.add(p, t) == G.a
    # an element invertible only partway down the product tower
    w = G.element(("n", "n0"), [1, 1, 0])
    assert G.inverse(w) == G.element(("n", "n1"), [1, 1])


# -- ideal enumeration helpers ------------------------------------------------------


def test_enumerate_ideals_of_z6():
    m = adjoin_error(rings.Mod(6))
    ideals = enumerate_meadow_ideals(m)
    assert len(ideals) == 3  # {0}, (2), (3)
    maxima = maximal_ideals(m)
    tops = {frozenset(v.payload for v in i.members_by_node("top")) for i in maxima}
    assert tops == {frozenset({0, 2, 4}), frozenset({0, 3})}


def test_ideal_containment_order():
    m = adjoin_error(rings.Mod(6))
    ideals = {
        frozenset(v.payload for v in i.members_by_node("top")): i
        for i in enumerate_meadow_ideals(m)
    }
    zero = ideals[frozenset({0})]
    evens = ideals[frozenset({0, 2, 4})]
    assert ideal_leq(zero, evens)
    assert not ideal_leq(evens, zero)
