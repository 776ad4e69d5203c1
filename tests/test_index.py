"""The index view of finite carriers and the compiled law checker.

Each is checked against the element-level path it replaces: the tables
against the meadow's own operations, and every compiled suite against the
same suite evaluated term by term on a meadow of status "lazy", which
keeps the element path.
"""

import pytest

from meadows import axioms, rings
from meadows.errors import InfiniteCarrier
from meadows.meadow import Meadow, MeadowElement, build_meadow

import corpus


def _element_ops(m):
    return {
        "add": m.add,
        "mul": m.mul,
        "neg": m.neg,
        "zero_of": m.zero_of,
        "inverse": m.inverse,
    }


@pytest.mark.parametrize("name", [name for name, _ in corpus.finite_meadows()])
def test_tables_match_element_operations(name):
    m = dict(corpus.finite_meadows())[name]
    ix = Meadow(m.dl, m.status).freeze_tables()
    elems = ix.elements
    assert elems == m.elements()
    assert all(ix.position[x] == i for i, x in enumerate(elems))
    ops = _element_ops(Meadow(m.dl, "lazy"))
    for op in ("add", "mul"):
        table = getattr(ix, op)
        assert [[elems[k] for k in row] for row in table] == [
            [ops[op](x, y) for y in elems] for x in elems
        ], op
    for op in ("neg", "zero_of", "inverse"):
        assert [elems[k] for k in getattr(ix, op)] == [ops[op](x) for x in elems], op


def _outcome(report):
    return report.mode, [(r.name, r.status, r.witnesses, r.checked) for r in report.laws]


@pytest.mark.parametrize("name", [name for name, _ in corpus.finite_meadows()])
def test_compiled_suites_match_element_path(name):
    m = dict(corpus.finite_meadows())[name]
    runs = [{"exhaustive": True}] + [
        {"exhaustive": False, "budget": budget, "seed": seed}
        for seed, budget in ((0, 40), (7, 200), (2024, 512))
    ]
    for suite in axioms.SUITES:
        for kwargs in runs:
            compiled = axioms.check_axioms(Meadow(m.dl, "verified"), suite, **kwargs)
            element = axioms.check_axioms(Meadow(m.dl, "lazy"), suite, **kwargs)
            assert _outcome(compiled) == _outcome(element), (suite, kwargs)


def test_compiled_witness_is_first_failing_tuple():
    two = rings.Mod(2)
    m = build_meadow(corpus.chain(two, rings.identity_hom(two), two), mode="verify")
    (result,) = axioms.check_axioms(m, "NVL", exhaustive=True).laws
    elems = m.elements()
    first = next(x for x in elems if x != m.a and m.mul(m.zero, x) != m.zero)
    assert result.witnesses == [(first,)]
    assert result.checked == elems.index(first) + 1


def test_frozen_meadow_answers_from_tables():
    m = dict(corpus.finite_meadows())["z6"]
    frozen = Meadow(m.dl, m.status)
    ix = frozen.freeze_tables()
    assert frozen.freeze_tables() is ix
    for x in ix.elements:
        for y in ix.elements:
            assert frozen.add(x, y) == m.add(x, y)
            assert frozen.mul(x, y) == m.mul(x, y)


def test_tables_are_built_on_first_read():
    m = dict(corpus.finite_meadows())["z4"]
    ix = Meadow(m.dl, m.status).freeze_tables()
    assert not {"add", "mul", "neg", "zero_of", "inverse"} & set(vars(ix))
    ix.add
    assert "add" in vars(ix) and "mul" not in vars(ix)


@pytest.mark.parametrize("name", ["z6", "z2_diamond", "glue_z2_z2"])
def test_an_exhaustive_check_builds_no_element_list(name):
    m = dict(corpus.finite_meadows())[name]
    fresh = Meadow(m.dl, m.status)
    for suite in axioms.SUITES:
        axioms.check_axioms(fresh, suite, exhaustive=True)
    ix = fresh.freeze_tables()
    assert {"add", "mul", "inverse"} <= set(vars(ix))
    assert fresh._elements is None
    assert "elements" not in vars(ix) and "position" not in vars(ix)


def test_key_and_element_number_each_node_from_its_start():
    m = dict(corpus.finite_meadows())["chain_z4_z2"]
    ix = Meadow(m.dl, m.status).freeze_tables()
    starts = {}
    for k in ix.pool:
        x = ix.element(k)
        starts.setdefault(x.node, k)
        local = rings.FiniteTables(m.dl.ring_at[x.node]).index[x.value.payload]
        assert ix.key(x) == k == starts[x.node] + local
    assert "elements" not in vars(ix)
    assert [ix.element(k) for k in ix.pool] == ix.elements == m.elements()


def test_freeze_tables_needs_a_finite_carrier():
    with pytest.raises(InfiniteCarrier):
        build_meadow(corpus.chain_z_q(), mode="verify").freeze_tables()


def test_foreign_element_still_refused_when_frozen():
    from meadows.errors import ForeignElement

    m = dict(corpus.finite_meadows())["z2"]
    other = dict(corpus.finite_meadows())["z3"]
    frozen = Meadow(m.dl, m.status)
    frozen.freeze_tables()
    with pytest.raises(ForeignElement):
        frozen.add(frozen.one, other.one)
    with pytest.raises(ForeignElement):
        frozen.mul(MeadowElement("nowhere", frozen.one.value), frozen.one)


LAZY_CARRIERS = {
    "chain_z_q": lambda: build_meadow(corpus.chain_z_q(), mode="verify"),
    "z6_lazy": lambda: Meadow(dict(corpus.finite_meadows())["z6"].dl, "lazy"),
}


@pytest.mark.parametrize("name", sorted(LAZY_CARRIERS))
def test_lazy_index_numbers_each_element_once(name):
    m = LAZY_CARRIERS[name]()
    ix = m.lazy_index
    assert m.lazy_index is ix
    pool = m.probe_pool()
    assert [ix.element(k) for k in ix.pool] == pool
    for x in pool:
        assert ix.element(ix.key(x)) == x
    for x in pool:
        for y in pool:
            for op in ("add", "mul"):
                k = getattr(ix, op)[ix.key(x)][ix.key(y)]
                assert ix.element(k) == getattr(m, op)(x, y)
                assert ix.key(getattr(m, op)(x, y)) == k  # an equal pair met again keeps its number
    assert len(ix.position) == len(ix.elements) == len(set(ix.elements))
    assert all(ix.position[pair] == i for i, pair in enumerate(ix.elements))


def test_lazy_index_keys_on_the_node():
    m = build_meadow(corpus.chain_z_q(), mode="verify")
    ix = m.lazy_index
    one_z, one_q = m.element("n0", 1), m.element("n1", 1)  # payloads 1 and Fraction(1) are equal
    assert ix.key(one_z) != ix.key(one_q)
    assert (ix.element(ix.key(one_z)), ix.element(ix.key(one_q))) == (one_z, one_q)
