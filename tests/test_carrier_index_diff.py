"""The carrier index read off ring-local index lists, against the element-built index it replaced.

The reference (``ReferenceIndex``) lists the carrier as element objects,
numbers them by a dict, pushes each node's ring values through the
transition maps, and answers ``neg``, ``zero_of`` and ``inverse`` by the
meadow's pair operations on every element, in carrier order.  For every
case the new ``CarrierIndex`` must give the same five tables, the same
``elements`` and ``position``, and ``key`` must agree with the reference's
numbering; where the reference raises, the new index must raise the same
exception class with the same message (and, for ``AmbiguousInverse``, the
same element and node set).  Each table is read on its own fresh meadow,
and then all five in turn on one.

The cases: the corpus finite meadows, the shipped finite files (the
ambiguous ones built lazily), the benchmark's finite seeded large files,
hypothesis-built divisor lattices, products and glues, unvalidated
diamonds (an edge table that misses an input, a one-element ring above the
bottom), an order with a cycle, and a pre-meadow, which has no inverse.

Every index on one directed lattice shares its ``CarrierLayout``.  A
second meadow on a lattice must give the first one's tables while calling
no transition and no edge map, a pre-meadow beside a meadow must still
fail at its inverse alone, and a push that raises must raise the same
error again for the next meadow.
"""

from __future__ import annotations

import functools
import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from meadows import rings
from meadows.errors import AmbiguousInverse, MissingEdgeHom, NotALattice, TableIncomplete
from meadows.latfile import lattice_from_dict
from meadows.lattice import DirectedLattice, Lattice
from meadows.meadow import TABLE_OPS, Meadow, PreMeadow, build_meadow
from meadows.morphisms import glue, meadow_product

import corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (the benchmark's seeded lattice files)


class ReferenceIndex:
    """The index as it was built from element objects, kept as the reference."""

    def __init__(self, m: PreMeadow):
        self.meadow = m
        self.elements = m.elements()
        self.position = {x: i for i, x in enumerate(self.elements)}
        self._start: dict = {}
        self._values: dict = {}
        for i, x in enumerate(self.elements):
            self._start.setdefault(x.node, i)
            self._values.setdefault(x.node, []).append(x.value)
        tables: dict = {}
        self._rings = {}
        for n in self._values:
            desc = m.dl.ring_at[n]
            if desc not in tables:
                tables[desc] = rings.FiniteTables(desc)
            self._rings[n] = tables[desc]
        self._pushes: dict = {}

    def _push(self, i, k) -> list[int]:
        key = (i, k)
        if key not in self._pushes:
            fn, local = self.meadow.dl.transition(i, k).fn, self._rings[k].index
            self._pushes[key] = [local[fn(v.payload)] for v in self._values[i]]
        return self._pushes[key]

    def _locate(self, pair) -> int:
        node, payload = pair
        return self._start[node] + self._rings[node].index[payload]

    def _binary(self, op: str) -> list[list[int]]:
        rings.check_cells("the carrier", len(self.elements))
        meet = self.meadow.lattice.meet
        rows = []
        for i in self._values:
            blocks = []
            for j in self._values:
                k = meet(i, j)
                table = getattr(self._rings[k], op)
                blocks.append((self._push(i, k), self._push(j, k), table, self._start[k]))
            for a in range(len(self._values[i])):
                row = []
                for left, right, table, start in blocks:
                    images = table[left[a]]
                    row += [start + images[b] for b in right]
                rows.append(row)
        return rows

    def _unary(self, pair_fn) -> list[int]:
        return [self._locate(pair_fn((x.node, x.value.payload))) for x in self.elements]

    @functools.cached_property
    def add(self):
        return self._binary("add")

    @functools.cached_property
    def mul(self):
        return self._binary("mul")

    @functools.cached_property
    def neg(self):
        return self._unary(self.meadow._neg)

    @functools.cached_property
    def zero_of(self):
        return self._unary(self.meadow._zero_of)

    @functools.cached_property
    def inverse(self):
        return self._unary(self.meadow._inverse)


def fresh(dl: DirectedLattice) -> DirectedLattice:
    """The same lattice, rings and edges, with no transition cached."""
    return DirectedLattice(dl.lattice, dl.ring_at, dl.edge_homs)


def read(make_index, name: str):
    """The value of reading ``name``, or what it raised."""
    try:
        return "ok", getattr(make_index(), name)
    except Exception as exc:  # the outcome compared is the exception itself
        extra = (exc.element, exc.maximal) if isinstance(exc, AmbiguousInverse) else ()
        return "raised", type(exc), str(exc), extra


def assert_same_index(dl: DirectedLattice, make=lambda dl: Meadow(dl, "lazy")):
    """Every table, each on a fresh meadow and then all in turn on one,
    then the numbering.  Returns the tables' outcomes."""
    outcomes = {}
    for name in TABLE_OPS:
        want = read(lambda: ReferenceIndex(make(fresh(dl))), name)
        got = read(lambda: make(fresh(dl)).freeze_tables(), name)
        assert got == want, name
        outcomes[name] = want
    ref, ix = ReferenceIndex(make(fresh(dl))), make(fresh(dl)).freeze_tables()
    for name in TABLE_OPS:
        assert read(lambda: ix, name) == read(lambda: ref, name), name
    assert ix.elements == ref.elements
    assert ix.position == ref.position
    assert list(ix.pool) == list(range(len(ref.elements)))
    for x, k in ref.position.items():
        assert ix.key(x) == k
        assert ix.element(k) == x
    return outcomes


def _finite_lattices():
    out = [(f"meadow:{name}", m.dl) for name, m in corpus.finite_meadows()]
    out.append(("corpus:two_z3_ambiguous", corpus.two_z3_ambiguous()))
    for path in sorted((ROOT / "lattices").glob("*.json")):
        if "ideal" not in path.stem:
            out.append((f"file:{path.stem}", lattice_from_dict(json.loads(path.read_text()))))
    for seed in (1, 7):
        for name, data in gen.large_files(random.Random(seed)).items():
            out.append((f"seeded{seed}:{name}", lattice_from_dict(data)))
    return [(name, dl) for name, dl in out if dl.is_finite()]


FINITE = _finite_lattices()


def _build(dl: DirectedLattice):
    """The meadow a user gets: certified, or lazy where certification fails."""
    try:
        return build_meadow(dl)
    except AmbiguousInverse:
        return build_meadow(dl, mode="lazy")


@pytest.mark.parametrize("name, dl", FINITE, ids=[name for name, _ in FINITE])
def test_tables_match_the_element_built_index(name, dl):
    assert_same_index(dl, _build)


def test_the_cases_include_large_and_ambiguous_carriers():
    names = {name for name, _ in FINITE}
    assert {"file:two_z3_ambiguous", "file:example_4_14"} <= names
    assert any(name.startswith("seeded7:") for name in names)
    sizes = [len(Meadow(dl, "lazy").elements()) for _, dl in FINITE]
    assert max(sizes) >= 80


def test_an_ambiguous_element_raises_the_same_error():
    # 5 is a non-unit of Z_30 that inverts in both Z_2 and Z_3
    got = assert_same_index(corpus.divisor_lattice(30, [2, 3], False))
    status, cls, message, (element, maximal) = got["inverse"]
    assert (status, cls, str(element), maximal) == ("raised", AmbiguousInverse, "5 @ d30", {"d2", "d3"})
    assert got["add"][0] == "ok"


def test_a_missing_table_entry_raises_the_same_error():
    got = assert_same_index(corpus.z4_diamond_missing_3())
    for name in ("add", "mul", "inverse"):
        assert got[name][:2] == ("raised", TableIncomplete), name
    assert got["neg"][0] == got["zero_of"][0] == "ok"


def _diamond(rings_at: dict, edges: dict) -> DirectedLattice:
    lat = Lattice(["t", "l", "r", "a"], [("a", "l"), ("a", "r"), ("l", "t"), ("r", "t")])
    return DirectedLattice(lat, {**rings_at, "a": rings.ZERO}, edges)


def test_an_ambiguous_element_before_a_missing_entry_raises_first():
    # 5 @ t is ambiguous, and the table t -> l misses 7: in carrier order
    # the ambiguity comes first, though the push list to l fails first
    z2, z30 = rings.Mod(2), rings.Mod(30)
    pairs = [(rings.RingValue(z30, v), rings.RingValue(z2, v % 2)) for v in range(30) if v != 7]
    dl = _diamond(
        {"t": z30, "l": z2, "r": rings.Mod(3)},
        {("t", "l"): rings.table_hom(z30, z2, pairs), ("t", "r"): rings.mod_to_mod(30, 3)},
    )
    got = assert_same_index(dl)
    assert got["inverse"][:3] == ("raised", AmbiguousInverse, "ambiguous inverse for 5 @ t: maximal nodes ['l', 'r']")
    assert got["add"][:3] == ("raised", TableIncomplete, "no table entry for 7")


def test_a_one_element_ring_above_the_bottom_is_gathered():
    # unvalidated: the zero ring at l, whose one element is pushed to the meet a of l and r
    z4 = rings.Mod(4)
    dl = _diamond({"t": z4, "l": rings.ZERO, "r": rings.Mod(2)}, {("t", "l"): rings.collapse_hom(z4), ("t", "r"): rings.mod_to_mod(4, 2)})
    got = assert_same_index(dl)
    assert got["add"][0] == got["mul"][0] == got["inverse"][0] == "ok"


def test_an_order_with_a_cycle_matches():
    # unvalidated: a and u lie below each other; a's one element is a unit at
    # both, which are then not maximal, so its inverse is ambiguous
    z0 = rings.ZERO
    cycle = Lattice(["u", "a"], [("u", "a"), ("a", "u")])
    dl = DirectedLattice(cycle, {"u": z0, "a": z0}, {("u", "a"): rings.identity_hom(z0), ("a", "u"): rings.identity_hom(z0)})
    got = assert_same_index(dl)
    assert got["inverse"][:2] == ("raised", AmbiguousInverse)
    assert got["add"][:3] == ("raised", NotALattice, "nodes 'a' and 'a' have no meet")


def test_a_pre_meadow_has_no_inverse_table():
    got = assert_same_index(corpus.field_diamond(), PreMeadow)
    assert got["inverse"][:2] == ("raised", AttributeError)


# -- hypothesis-built lattices -------------------------------------------------

SMALL = ("z2", "z3", "z4", "z6", "z2xz2", "chain_z4_z2", "chain_z6_z2", "z2_diamond", "product_z2_z2", "glue_z2_z2")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((12, 30, 36, 60)), st.data())
def test_divisor_lattices_match(n, data):
    divisors = [d for d in range(2, n) if n % d == 0]
    chosen = data.draw(st.lists(st.sampled_from(divisors), max_size=4))
    assert_same_index(corpus.divisor_lattice(n, chosen, False))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL), st.sampled_from(SMALL))
def test_products_match(a, b):
    meadows = dict(corpus.finite_meadows())
    assert_same_index(meadow_product(meadows[a], meadows[b]).dl)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("z2", "z2xz2", "z2_diamond", "glue_z2_z2")), st.sampled_from(("z2", "z2cube", "product_z2_z2")))
def test_glues_match(a, b):
    meadows = dict(corpus.finite_meadows())
    assert_same_index(glue(meadows[a], meadows[b], 2).dl)


# -- one layout per directed lattice, shared by every index on it ---------------

MEADOWS = corpus.finite_meadows()
MEADOW_IDS = [name for name, _ in MEADOWS]


@pytest.mark.parametrize("name, m", MEADOWS, ids=MEADOW_IDS)
def test_a_second_meadow_on_one_lattice_gets_the_same_tables(name, m):
    dl = fresh(m.dl)
    first = Meadow(dl, m.status).freeze_tables()
    want = {op: getattr(first, op) for op in TABLE_OPS}
    second = Meadow(dl, m.status).freeze_tables()
    ref = ReferenceIndex(Meadow(fresh(m.dl), m.status))
    for op in TABLE_OPS:
        assert getattr(second, op) == want[op] == getattr(ref, op), op
    assert second.elements == first.elements and second.elements is not first.elements


def _raise(*args):
    raise AssertionError("a second freeze pushed a payload")


@pytest.mark.parametrize("name, m", MEADOWS, ids=MEADOW_IDS)
@pytest.mark.parametrize("first_op", ("add", "inverse"))
def test_a_second_freeze_calls_no_transition_and_no_edge_map(name, m, first_op, monkeypatch):
    # the first meadow makes every push: ``add`` through the block plan,
    # ``inverse`` down each node's down-set, which are the same node pairs
    dl = fresh(m.dl)
    getattr(Meadow(dl, m.status).freeze_tables(), first_op)
    ref = ReferenceIndex(Meadow(fresh(m.dl), m.status))
    want = {op: getattr(ref, op) for op in TABLE_OPS}
    with monkeypatch.context() as patch:
        patch.setattr(DirectedLattice, "transition", _raise)
        for edge, h in list(dl.edge_homs.items()):
            dead = rings.RingHom(h.source, h.target, h.rule)
            object.__setattr__(dead, "fn", _raise)
            patch.setitem(dl.edge_homs, edge, dead)
        for op in TABLE_OPS:
            assert getattr(Meadow(dl, m.status).freeze_tables(), op) == want[op], op


def test_a_pre_meadow_and_a_meadow_share_one_lattice():
    dl = fresh(corpus.field_diamond())
    ref = ReferenceIndex(Meadow(fresh(dl), "lazy"))
    pre, meadow = PreMeadow(dl).freeze_tables(), Meadow(dl, "lazy").freeze_tables()
    assert meadow.inverse == ref.inverse
    want = read(lambda: ReferenceIndex(PreMeadow(fresh(dl))), "inverse")
    assert want[:3] == ("raised", AttributeError, "'PreMeadow' object has no attribute '_inverse'")
    assert read(lambda: pre, "inverse") == want
    # and the other way round: the pre-meadow's failure leaves the layout whole
    assert read(lambda: PreMeadow(dl).freeze_tables(), "inverse") == want
    assert pre.add == meadow.add == ref.add
    assert Meadow(dl, "lazy").freeze_tables().inverse == ref.inverse


def _missing_edge() -> DirectedLattice:
    # unvalidated: the diamond's t -> l edge has no hom
    z4, z2 = rings.Mod(4), rings.Mod(2)
    return _diamond({"t": z4, "l": z2, "r": z2}, {("t", "r"): rings.mod_to_mod(4, 2)})


@pytest.mark.parametrize("make, cls", [
    (corpus.z4_diamond_missing_3, TableIncomplete),
    (_missing_edge, MissingEdgeHom),
], ids=["missing-entry", "missing-edge"])
def test_a_push_that_raises_raises_again_for_the_next_meadow(make, cls):
    dl = make()
    for op in ("add", "mul", "inverse"):
        want = read(lambda: ReferenceIndex(Meadow(make(), "lazy")), op)
        assert want[:2] == ("raised", cls), op
        for _ in range(2):
            assert read(lambda: Meadow(dl, "lazy").freeze_tables(), op) == want, op
    assert dl._layout._plan is None
    # the pushes that succeed are kept, and read again by the next meadow
    assert read(lambda: Meadow(dl, "lazy").freeze_tables(), "neg")[0] == "ok"
