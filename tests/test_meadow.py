"""Meadow construction, total operations, inverses and decomposition."""

import pytest

from meadows import rings
from meadows.errors import AmbiguousInverse, ForeignElement, InfiniteCarrier, NotAZero
from meadows.meadow import MeadowElement, build_meadow, build_premeadow
from meadows.morphisms import adjoin_error

import corpus


@pytest.fixture(scope="module")
def N():
    """The integers sitting above the rationals above the error element."""
    return build_meadow(corpus.chain_z_q(), mode="verify")


@pytest.fixture(scope="module")
def M6():
    return adjoin_error(rings.Mod(6))


def test_chain_meadow_builds(N):
    assert N.status == "lazy"  # infinite carrier: certified per call
    assert not N.is_finite()


def test_integer_inverts_in_the_rationals(N):
    assert N.inverse(N.element("n0", 2)) == N.element("n1", "1/2")


def test_zero_inverts_to_error(N):
    assert N.inverse(N.element("n0", 0)) == N.a


def test_single_ring_non_unit_inverts_to_error():
    M = build_meadow(corpus.single(rings.Z), mode="verify")
    assert M.inverse(M.element("top", 5)) == M.a


def test_two_q_build_fails_ambiguously():
    with pytest.raises(AmbiguousInverse) as exc:
        build_meadow(corpus.two_q_ambiguous(), mode="verify")
    assert exc.value.maximal == {"q1", "q2"}


def test_two_q_lazy_mode_fails_at_the_call():
    M = build_meadow(corpus.two_q_ambiguous(), mode="lazy")
    with pytest.raises(AmbiguousInverse) as exc:
        M.inverse(M.element("z", 2))
    assert exc.value.maximal == {"q1", "q2"}
    # units of the top ring still invert fine
    assert M.inverse(M.element("z", -1)) == M.element("z", -1)


def test_z6_meadow_has_seven_elements(M6):
    assert M6.status == "verified"
    assert M6.size() == 7


def test_addition_descends_to_the_rationals(N):
    got = N.add(N.element("n0", 2), N.element("n1", "1/3"))
    assert got == N.element("n1", "7/3")


def test_error_element_absorbs(N, M6):
    for m, x in ((N, N.element("n0", 5)), (M6, M6.element("top", 3))):
        assert m.add(x, m.a) == m.a
        assert m.mul(x, m.a) == m.a
    assert N.neg(N.a) == N.a


def test_diamond_multiplication_lands_at_meet():
    M = build_meadow(corpus.z2_diamond_with_meet(), mode="verify")
    got = M.mul(M.element("l", 1), M.element("r", 1))
    assert got == M.element("m", 1)


def test_negation(M6):
    M3 = adjoin_error(rings.Mod(3))
    assert M3.neg(M3.element("top", 2)) == M3.element("top", 1)
    z = build_meadow(corpus.single(rings.Z), mode="verify")
    assert z.neg(z.element("top", 3)) == z.element("top", -3)


def test_zero_of(N):
    assert N.zero_of(N.element("n1", "1/2")) == N.element("n1", 0)
    assert N.zero_of(N.a) == N.a
    assert N.zero_of(N.element("n0", 5)) == N.element("n0", 0)


def test_zero_of_matches_multiplication_by_zero(N, M6):
    for m, x in ((N, N.element("n1", "3/4")), (M6, M6.element("top", 4))):
        assert m.zero_of(x) == m.mul(m.zero, x)


def test_component_zeros_are_idempotent(M6):
    for name, m in corpus.finite_meadows()[:8]:
        for node in m.lattice.nodes:
            z = m.component_zero(node)
            assert m.add(z, z) == z and m.mul(z, z) == z, name


def test_inverse_witness_examples(N):
    w = N.inverse_witness(N.element("n0", 2))
    assert w.support == {"n1", "a"}
    assert w.maximal == {"n1"}
    w0 = N.inverse_witness(N.element("n0", 0))
    assert w0.support == {"a"} and w0.maximal == {"a"}


def test_inverse_witness_always_contains_bottom(M6):
    for x in M6.elements():
        assert "a" in M6.inverse_witness(x).support


def test_two_q_witness_has_two_maximal_nodes():
    M = build_meadow(corpus.two_q_ambiguous(), mode="lazy")
    w = M.inverse_witness(M.element("z", 2))
    assert w.maximal == {"q1", "q2"}


def test_zeros_leq(N):
    assert N.zeros_leq(N.a, N.element("n0", 0))
    assert N.zeros_leq(N.element("n0", 0), N.element("n0", 0))
    assert not N.zeros_leq(N.element("n0", 0), N.element("n1", 0))
    assert N.zeros_leq(N.element("n1", 0), N.element("n0", 0))
    with pytest.raises(NotAZero):
        N.zeros_leq(N.element("n0", 1), N.element("n0", 0))


def test_zeros_leq_agrees_with_lattice_order(M6):
    for m_name, m in corpus.finite_meadows()[:6]:
        for n1 in m.lattice.nodes:
            for n2 in m.lattice.nodes:
                assert m.zeros_leq(m.component_zero(n1), m.component_zero(n2)) == m.lattice.leq(
                    n1, n2
                ), m_name


def test_foreign_element_rejected(N, M6):
    with pytest.raises(ForeignElement):
        N.add(N.element("n0", 1), M6.element("top", 1))


def test_contains_checks_node_and_ring(N, M6):
    assert N.contains(N.element("n1", "1/2")) and not N.contains(M6.one)
    # a known node carrying another ring, an unknown node, and a non-element
    assert not N.contains(MeadowElement("n0", rings.ring_value(rings.Q, 1)))
    assert not N.contains(MeadowElement("nowhere", rings.ring_value(rings.Z, 1)))
    assert not N.contains(("n0", 1))
    # equal descriptors that are different objects still match
    assert N.contains(MeadowElement("n0", rings.ring_value(rings.Integers(), 3)))


def test_product_inverse_examples():
    P = adjoin_error(rings.Product((rings.Mod(2), rings.Mod(2))))
    assert P.inverse(P.element("top", [1, 0])) == P.a
    assert P.inverse(P.element("top", [1, 1])) == P.element("top", [1, 1])
    for x in P.elements():
        if x != P.element("top", [1, 1]):
            assert P.inverse(x) == P.a


def test_numerals_enter_at_top(N, M6):
    assert N.numeral(7) == N.element("n0", 7)
    assert M6.numeral(7) == M6.element("top", 1)
    assert M6.one == M6.numeral(1)


def test_decompose_z6(M6):
    d = M6.decompose()
    assert set(d.components) == {"top", "a"}
    assert len(d.transitions) == 1  # only the drop to the bottom
    assert d.components["top"][0] == rings.Mod(6)


def test_decompose_infinite_raises(N):
    with pytest.raises(InfiniteCarrier):
        N.decompose()


def test_decompose_product():
    P = adjoin_error(rings.Product((rings.Mod(2), rings.Mod(2))))
    d = P.decompose()
    assert d.components["top"][0] == rings.Product((rings.Mod(2), rings.Mod(2)))
    assert d.components["a"][0] == rings.ZERO


def test_decompose_rebuild_round_trip_diamond():
    M = build_meadow(corpus.z2_diamond_with_meet(), mode="verify")
    rebuilt = build_meadow(M.decompose().to_directed_lattice(), mode="verify")
    assert M.operation_table("add") == rebuilt.operation_table("add")
    assert M.operation_table("mul") == rebuilt.operation_table("mul")


def test_premeadow_skips_inverse_checks():
    pre = build_premeadow(corpus.two_q_ambiguous())
    x = pre.element("z", 3)
    assert pre.add(x, pre.a) == pre.a
    assert not hasattr(pre, "inverse")
