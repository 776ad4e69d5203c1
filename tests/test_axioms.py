"""Law suites, structural characterizations and counterexample search."""

import pytest

from meadows import axioms, rings
from meadows.errors import DescriptorMismatch, InfiniteCarrier, InvalidBudget
from meadows.lattice import dl_validate
from meadows.meadow import PreMeadow, build_meadow, build_premeadow
from meadows.morphisms import adjoin_error

import corpus


def z2_three_chain():
    return corpus.chain(
        rings.Mod(2), rings.identity_hom(rings.Mod(2)), rings.Mod(2)
    )


def test_cm_exhaustive_on_z6():
    report = axioms.check_axioms(adjoin_error(rings.Mod(6)), "CM", exhaustive=True)
    assert report.ok
    assert len(report.laws) == 14
    assert report.mode == "exhaustive"


def test_pm_passes_on_every_corpus_meadow():
    for name, m in corpus.finite_meadows():
        assert axioms.check_axioms(m, "PM", exhaustive=True).ok, name


def test_identities_hold_on_corpus_sample():
    for name, m in corpus.finite_meadows()[:8]:
        assert axioms.check_axioms(m, "Identities", exhaustive=True).ok, name


def test_assembly_suites_hold():
    for name, m in corpus.finite_meadows()[:8]:
        assert axioms.check_axioms(m, "AssemblyAdd", exhaustive=True).ok, name
        assert axioms.check_axioms(m, "AssemblyMul", exhaustive=True).ok, name


def test_nvl_passes_on_two_node_fails_on_chain():
    assert axioms.check_axioms(adjoin_error(rings.Mod(6)), "NVL", exhaustive=True).ok
    chain_meadow = build_meadow(z2_three_chain(), mode="verify")
    report = axioms.check_axioms(chain_meadow, "NVL", exhaustive=True)
    assert not report.ok
    (witness,) = report.laws[0].witnesses
    assert witness[0].node == "n1"  # an element of the middle component


def test_avl_fails_with_non_unit_non_zero_witness():
    report = axioms.check_axioms(adjoin_error(rings.Mod(4)), "AVL", exhaustive=True)
    assert not report.ok
    (witness,) = report.laws[0].witnesses
    assert witness[0].value.payload == 2  # 2 is neither a unit nor zero in Z4


def test_avl_passes_on_fields_and_chains_of_fields():
    assert axioms.check_axioms(adjoin_error(rings.Mod(5)), "AVL", exhaustive=True).ok


def test_cil_field_versus_non_field():
    assert axioms.check_axioms(adjoin_error(rings.Mod(5)), "CIL", exhaustive=True).ok
    report = axioms.check_axioms(adjoin_error(rings.Mod(6)), "CIL", exhaustive=True)
    assert not report.ok
    (witness,) = report.laws[0].witnesses
    assert witness[0].value.payload == 2


def test_pm_suite_allowed_on_premeadow_cm_not():
    pre = build_premeadow(corpus.two_q_ambiguous())
    report = axioms.check_axioms(pre, "PM", budget=64)
    assert report.ok
    with pytest.raises(ValueError):
        axioms.check_axioms(pre, "CM")


def test_ambiguous_stand_in_passes_pm_but_has_no_inverse():
    from meadows.errors import AmbiguousInverse

    dl = corpus.two_z3_ambiguous()
    pre = build_premeadow(dl)
    assert axioms.check_axioms(pre, "PM", exhaustive=True).ok
    with pytest.raises(AmbiguousInverse):
        build_meadow(dl, mode="verify")


def test_cm_sampled_on_infinite_chain():
    N = build_meadow(corpus.chain_z_q(), mode="verify")
    report = axioms.check_axioms(N, "CM", budget=128, seed=3)
    assert report.ok
    assert report.mode.startswith("sampled")


def test_sampling_that_covers_every_tuple_reports_exhaustive():
    m = adjoin_error(rings.Mod(3))  # 4 elements, at most 64 tuples per law
    covered = axioms.check_axioms(m, "CM", budget=64, exhaustive=False)
    assert covered.mode == "exhaustive"
    full = axioms.check_axioms(m, "CM", exhaustive=True)
    assert [l.checked for l in covered.laws] == [l.checked for l in full.laws]
    assert axioms.check_axioms(m, "CM", budget=63, exhaustive=False).mode == "sampled:63"


def test_exhaustive_on_infinite_raises():
    N = build_meadow(corpus.chain_z_q(), mode="verify")
    with pytest.raises(InfiniteCarrier):
        axioms.check_axioms(N, "CM", exhaustive=True)


def test_sampling_is_deterministic_given_seed():
    N = build_meadow(corpus.chain_z_q(), mode="verify")
    r1 = axioms.check_axioms(N, "CM", budget=64, seed=11)
    r2 = axioms.check_axioms(N, "CM", budget=64, seed=11)
    assert [(l.name, l.status, l.checked) for l in r1.laws] == [
        (l.name, l.status, l.checked) for l in r2.laws
    ]


def test_characterizations_on_corpus():
    for name, m in corpus.finite_meadows():
        for which in ("NVL_struct", "AVL_struct", "NVL_AVL_struct", "CIL_struct"):
            assert axioms.check_characterizations(m, which).ok, (name, which)


def test_strong_assembly_iff_total_zero_order():
    for name, m in corpus.finite_meadows():
        strong = axioms.check_axioms(m, "StrongAssembly", exhaustive=True).ok
        zeros = [m.component_zero(n) for n in m.lattice.nodes]
        total = all(
            m.zeros_leq(z1, z2) or m.zeros_leq(z2, z1) for z1 in zeros for z2 in zeros
        )
        assert strong == total == m.lattice.is_chain(), name


def test_nvl_and_avl_equals_cil_on_corpus():
    for name, m in corpus.finite_meadows():
        nvl = axioms.check_axioms(m, "NVL", exhaustive=True).ok
        avl = axioms.check_axioms(m, "AVL", exhaustive=True).ok
        cil = axioms.check_axioms(m, "CIL", exhaustive=True).ok
        assert (nvl and avl) == cil, name


def test_find_counterexample_ambiguous_support():
    witness = axioms.find_counterexample(corpus.two_z3_ambiguous(), "unique-maximal-J_x")
    assert witness is not None
    assert witness[0].value.payload == 2  # first ambiguous element in scan order


def test_find_counterexample_none_on_valid_chain():
    assert axioms.find_counterexample(corpus.chain_z_q(), "M14") is None
    assert axioms.find_counterexample(corpus.chain_z_q(), "unique-maximal-J_x") is None


@pytest.mark.parametrize("budget", [0, -3])
def test_a_sample_budget_below_one_is_refused_not_passed(budget):
    # CIL fails on the chain (x = -3 at Z), so zero sampled tuples would be a false pass
    with pytest.raises(InvalidBudget):
        axioms.find_counterexample(corpus.chain_z_q(), "CIL", mode_budget=budget)
    with pytest.raises(InvalidBudget):
        axioms.check_axioms(build_meadow(corpus.chain_z_q()), "CIL", budget=budget)
    with pytest.raises(InvalidBudget):  # an exhaustive check draws nothing, and still refuses it
        axioms.check_axioms(dict(corpus.finite_meadows())["z6"], "PM", exhaustive=True, budget=budget)


def test_find_counterexample_broken_square_distributivity():
    witness = axioms.find_counterexample(corpus.broken_square_diamond(), "PM8")
    assert witness is not None
    x, y, z = witness
    # re-check the violation directly
    m = PreMeadow(corpus.broken_square_diamond())
    lhs = m.mul(x, m.add(y, z))
    rhs = m.add(m.mul(x, y), m.mul(x, z))
    assert lhs != rhs


def test_find_counterexample_refuses_an_edge_hom_into_the_wrong_ring():
    # the edge n0 -> n1 lands in Z2 while n1 carries Z3: Z2 payloads would pass for Z3 elements
    dl = corpus.chain(rings.Mod(6), rings.mod_to_mod(6, 2), rings.Mod(3))
    assert [c.note for c in dl_validate(dl).checks if not c.passed] == ["endpoint mismatch"]
    with pytest.raises(DescriptorMismatch, match=r"^the hom on \('n0', 'n1'\) is .* not a map Z6 -> Z3$"):
        axioms.find_counterexample(dl, "PM8")
    m = PreMeadow(dl)
    with pytest.raises(DescriptorMismatch):
        m.add(m.element("n0", 1), m.element("n1", 1))


def test_report_serialization_shapes():
    report = axioms.check_axioms(adjoin_error(rings.Mod(6)), "CIL", exhaustive=True)
    data = report.to_json_dict()
    assert data["suite"] == "CIL"
    assert data["laws"][0]["status"] == "fail"
    assert data["laws"][0]["witness"]
    text = report.to_text()
    assert "FAIL" in text
