"""hom_validate against the element-by-element algorithm it replaced.

``reference_hom_validate`` probes a finite source on every element pair,
with the ring operations on values and each image memoised by value, and
an infinite source on the fixed sample of ``_validation_inputs``.  The two
must give equal reports, check by check (name, passed, witness, checked,
sampled), on every edge hom and transition of the corpus and the shipped
lattice files, on every ring hom between small finite rings, on homs
whose tables are broken on purpose, and on hypothesis-drawn maps between
small finite rings (nested products and the zero ring among them): ring
homs with entries changed or dropped, and additive maps that are not
multiplicative.  These guard ``hom_validate``'s decision of + and * on
additive generators, and the pairwise scan that names the first witness
when the decision fails.
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from meadows import rings
from meadows.enumeration import enumerate_ring_homs
from meadows.errors import DescriptorMismatch
from meadows.latfile import lattice_from_dict
from meadows.report import ValidationReport

import corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent
Z2, Z3, Z4, Z6 = rings.Mod(2), rings.Mod(3), rings.Mod(4), rings.Mod(6)
Z2Z2, Z2Z2Z2 = rings.Product((Z2, Z2)), rings.Product((Z2, Z2, Z2))


def reference_hom_validate(h: rings.RingHom) -> ValidationReport:
    if rings.is_finite(h.source):
        elems = rings.enumerate_ring(h.source)
        pairs, exhaustive = list(itertools.product(elems, elems)), True
    else:
        (_, pairs), exhaustive = rings._validation_inputs(h.source), False
    report = ValidationReport(subject=str(h))
    images: dict = {}

    def image(v):
        if v not in images:
            images[v] = rings.hom_apply(h, v)
        return images[v]

    try:
        ok = image(rings.zero_value(h.source)) == rings.zero_value(h.target)
        report.add("preserves_zero", ok, None if ok else (rings.zero_value(h.source),), checked=1)
        ok = image(rings.one_value(h.source)) == rings.one_value(h.target)
        report.add("preserves_one", ok, None if ok else (rings.one_value(h.source),), checked=1)
        for name, op in (("additive", rings.add), ("multiplicative", rings.mul)):
            bad = None
            for x, y in pairs:
                if image(op(x, y)) != op(image(x), image(y)):
                    bad = (x, y)
                    break
            report.add(name, bad is None, bad, checked=len(pairs), sampled=not exhaustive)
    except rings.TableIncomplete as exc:
        report.add("table_covers_source", False, (str(exc),))
    except DescriptorMismatch as exc:
        report.add("images_in_target", False, (str(exc),))
    return report


def outcome(validate, h):
    """(subject, checks as tuples) of the report, or the exception raised."""
    try:
        report = validate(h)
    except Exception as exc:  # the reference's exceptions must be raised alike
        return type(exc), str(exc)
    return report.subject, [(c.name, c.passed, c.witness, c.checked, c.sampled, c.note) for c in report.checks]


def assert_same_report(h: rings.RingHom) -> None:
    assert outcome(rings.hom_validate, h) == outcome(reference_hom_validate, h)


def _lattices():
    out = [(f"corpus:{name}", dl) for name, dl in corpus.valid_finite_lattices()]
    out += [(f"meadow:{name}", m.dl) for name, m in corpus.finite_meadows()]
    for extra in ("two_z3_ambiguous", "two_q_ambiguous", "chain_z_q", "broken_square_diamond", "bad_table_diamond"):
        out.append((f"corpus:{extra}", getattr(corpus, extra)()))
    for path in sorted((ROOT / "lattices").glob("*.json")):
        if "ideal" not in path.stem:
            out.append((f"file:{path.stem}", lattice_from_dict(json.loads(path.read_text()))))
    return out


LATTICES = _lattices()


@pytest.mark.parametrize("name, dl", LATTICES, ids=[name for name, _ in LATTICES])
def test_edge_homs_and_transitions_match_the_reference(name, dl):
    homs = list(dl.edge_homs.values())
    L = dl.lattice
    homs += [dl.transition(i, j) for i in L.nodes for j in L.nodes if L.leq(j, i)]
    for h in homs:
        assert_same_report(h)


SMALL_RINGS = [rings.ZERO, Z2, Z3, Z4, rings.Mod(5), Z6, Z2Z2, rings.Product((Z2, Z3)), Z2Z2Z2]


@pytest.mark.parametrize(
    "src, dst", list(itertools.product(SMALL_RINGS, repeat=2)), ids=lambda d: str(d)
)
def test_enumerated_ring_homs_match_the_reference(src, dst):
    for h in enumerate_ring_homs(src, dst):
        assert rings.hom_validate(h).ok
        assert_same_report(h)


def v(desc, raw):
    return rings.ring_value(desc, raw)


table = rings.table_hom  # missing and duplicate entries are kept


def z6_to_z3_without(*missing):
    return table(Z6, Z3, [(k, k % 3) for k in range(6) if k not in missing])


MUTATED = {
    "one_missing_entry": z6_to_z3_without(4),
    "two_missing_entries": z6_to_z3_without(5, 2),
    "missing_zero": z6_to_z3_without(0),
    "missing_one": z6_to_z3_without(1),
    "zero_not_preserved": table(Z3, Z3, [(0, 1), (1, 1), (2, 2)]),
    "one_not_preserved": table(Z2, Z2Z2, [(0, (0, 0)), (1, (1, 0))]),
    "additive_fails_first_pass": table(Z3, Z3, [(0, 1), (1, 1)]),
    # x -> x^2 is multiplicative and keeps 0 and 1, but 1 + 1 -> 1 != 1 + 1
    "square_not_additive": table(Z3, Z3, [(0, 0), (1, 1), (2, 1)]),
    "product_of_coordinates": table(Z2Z2, Z2, [((x, y), x * y) for x in (0, 1) for y in (0, 1)]),
    "additive_fails_into_a_product": table(Z4, Z2Z2, [(k, (k % 2, 1 if k else 0)) for k in range(4)]),
    # F2-linear and fixes (1, 1, 1), but (1, 0, 0) * (0, 1, 0) = 0 while the images multiply to (0, 0, 1)
    "multiplicative_fails_only": table(
        Z2Z2Z2, Z2Z2Z2, [(x, (x[0], x[1], sum(x) % 2)) for x in itertools.product((0, 1), repeat=3)]
    ),
    "into_polynomials": rings.constant_embed(rings.Poly(Z3)),
    "into_polynomials_wrong": table(Z3, rings.Poly(Z3), [(0, []), (1, [1]), (2, [0, 1])]),
    "into_polynomials_missing": table(Z3, rings.Poly(Z3), [(0, []), (2, [2])]),
    "into_rationals_missing": table(Z2, rings.Q, [(0, 0)]),
    "into_zero_ring": rings.collapse_hom(Z2Z2),
    # the row-by-row comparison of a target no larger than the source:
    # 3 * 3 = 1 -> 1, but 3 -> 2 and 2 * 2 = 0, the one failing product
    "first_failure_in_the_last_row": table(Z4, Z4, [(0, 0), (1, 1), (2, 0), (3, 2)]),
    # 0 -> 1 fails every check in row 0, before the missing 3 is imaged
    "zero_not_preserved_and_an_entry_missing": table(Z4, Z2, [(0, 1), (1, 0), (2, 1)]),
    "an_entry_missing_in_the_middle": table(Z6, Z2, [(k, k % 2) for k in range(6) if k != 3]),
    # the payload 3 of Z4 is not an element of Z3: the indexed check gives
    # up on it and the images are compared as values
    "payloads_off_a_smaller_target": rings.RingHom(rings.Product((Z2, Z4)), Z3, rings.Project(1)),
}


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_mutated_tables_match_the_reference(name):
    assert_same_report(MUTATED[name])


def test_mutated_reports_name_the_first_missing_input():
    two = rings.hom_validate(MUTATED["two_missing_entries"])
    assert two.checks[-1].name == "table_covers_source"
    assert two.checks[-1].witness == ("no table entry for 2",)
    square = rings.hom_validate(MUTATED["square_not_additive"])
    assert [(c.name, c.passed) for c in square.checks] == [
        ("preserves_zero", True),
        ("preserves_one", True),
        ("additive", False),
        ("multiplicative", True),
    ]
    assert square.checks[2].witness == (v(Z3, 1), v(Z3, 1))
    linear = rings.hom_validate(MUTATED["multiplicative_fails_only"])
    assert [(c.name, c.passed) for c in linear.checks][2:] == [("additive", True), ("multiplicative", False)]


# -- hypothesis-drawn maps between small finite rings -------------------------

RESIDUES = st.sampled_from([rings.Mod(n) for n in range(2, 7)])
NONZERO = st.recursive(
    RESIDUES,
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(lambda fs: rings.Product(tuple(fs))),
    max_leaves=4,
).filter(lambda d: rings.ring_size(d) <= 36)
FINITE = st.integers(0, 9).flatmap(lambda k: st.just(rings.ZERO) if k == 9 else NONZERO)  # the zero ring now and then


@st.composite
def changed_tables(draw):
    """A table between two drawn rings: a ring hom between them when there is
    one (else a drawn map), with some entries changed or dropped."""
    src, dst = draw(FINITE), draw(FINITE)
    inputs, targets = rings.enumerate_ring(src), rings.enumerate_ring(dst)
    homs = enumerate_ring_homs(src, dst)
    if homs and draw(st.booleans()):
        h = draw(st.sampled_from(homs))
        images = [rings.hom_apply(h, x) for x in inputs]
    else:
        images = [draw(st.sampled_from(targets)) for _ in inputs]
    at = st.integers(0, len(inputs) - 1)
    for k in draw(st.lists(at, max_size=2)):
        images[k] = draw(st.sampled_from(targets))
    for k in sorted(set(draw(st.lists(at, max_size=1))), reverse=True):
        del inputs[k], images[k]
    return rings.table_hom(src, dst, zip(inputs, images))


@st.composite
def additive_maps(draw):
    """x -> kx on a drawn ring, or, out of a product of residue rings, the
    additive map that sends each idempotent e_i to u_i (n_i u_i = 0) with
    the u_i summing to 1, so that 1 -> 1: multiplicative only when the u_i
    are orthogonal idempotents."""
    if draw(st.booleans()):
        ring = draw(FINITE)
        k = draw(st.sampled_from(rings.enumerate_ring(ring)))
        return rings.table_hom(ring, ring, [(x, rings.mul(k, x)) for x in rings.enumerate_ring(ring)])
    src = rings.Product(tuple(draw(st.lists(RESIDUES, min_size=2, max_size=3))))
    dst = draw(FINITE)
    zero = rings.from_int(dst, 0)

    def order_divides(n, u):  # e_i has additive order n_i, so u_i's must divide it
        return rings.mul(rings.from_int(dst, n), u) == zero

    targets = rings.enumerate_ring(dst)
    u = [draw(st.sampled_from([t for t in targets if order_divides(f.n, t)])) for f in src.factors[1:]]
    # the first u_i makes the sum 1; when its order does not divide n_1 the map is not additive
    u.insert(0, rings.sub(rings.one_value(dst), functools.reduce(rings.add, u)))
    graph = []
    for x in rings.enumerate_ring(src):
        image = rings.from_int(dst, 0)
        for xi, ui in zip(x.payload, u):
            image = rings.add(image, rings.mul(rings.from_int(dst, xi), ui))
        graph.append((x, image))
    return rings.table_hom(src, dst, graph)


@settings(max_examples=150, deadline=None)
@given(changed_tables())
def test_changed_tables_between_small_finite_rings_match_the_reference(h):
    assert_same_report(h)


@settings(max_examples=150, deadline=None)
@given(additive_maps())
def test_additive_maps_match_the_reference(h):
    assert_same_report(h)
