"""hom_validate against the element-by-element algorithm it replaced.

``reference_hom_validate`` probes a finite source on every element pair,
with the ring operations on values and each image memoised by value, and
an infinite source on the seeded sample of ``_validation_inputs``.  The two
must give equal reports, check by check (name, passed, witness, checked,
sampled), on every edge hom and transition of the corpus and the shipped
lattice files, on every ring hom between small finite rings, and on homs
whose tables are broken on purpose.
"""

from __future__ import annotations

import itertools
import json
import pathlib

import pytest

from meadows import rings
from meadows.enumeration import enumerate_ring_homs
from meadows.latfile import lattice_from_dict
from meadows.report import ValidationReport

import corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETTINGS = ((64, 0), (16, 3))

Z2, Z3, Z4, Z6 = rings.Mod(2), rings.Mod(3), rings.Mod(4), rings.Mod(6)
Z2Z2, Z2Z2Z2 = rings.Product((Z2, Z2)), rings.Product((Z2, Z2, Z2))


def reference_hom_validate(h: rings.RingHom, budget: int = 64, seed: int = 0) -> ValidationReport:
    if rings.is_finite(h.source):
        elems = rings.enumerate_ring(h.source)
        pairs, exhaustive = list(itertools.product(elems, elems)), True
    else:
        (_, pairs), exhaustive = rings._validation_inputs(h.source, budget, seed), False
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
    return report


def outcome(validate, h, budget, seed):
    """(subject, checks as tuples) of the report, or the exception raised."""
    try:
        report = validate(h, budget, seed)
    except Exception as exc:  # the reference's exceptions must be raised alike
        return type(exc), str(exc)
    return report.subject, [(c.name, c.passed, c.witness, c.checked, c.sampled, c.note) for c in report.checks]


def assert_same_report(h: rings.RingHom) -> None:
    for budget, seed in SETTINGS:
        assert outcome(rings.hom_validate, h, budget, seed) == outcome(reference_hom_validate, h, budget, seed)


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


def table(src, dst, pairs):
    """A table hom whose graph is kept as given (missing and odd entries included)."""
    return rings.RingHom(src, dst, rings.TableRule(tuple((v(src, i), v(dst, o)) for i, o in pairs)))


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
    "images_outside_the_target": rings.RingHom(
        Z2, Z2, rings.TableRule(((v(Z2, 0), v(Z3, 0)), (v(Z2, 1), v(Z3, 1))))
    ),
    # the reference's add refuses the Z6 image: both raise DescriptorMismatch
    "some_images_outside_the_target": rings.RingHom(
        Z3, Z3, rings.TableRule(((v(Z3, 0), v(Z3, 0)), (v(Z3, 1), v(Z3, 1)), (v(Z3, 2), v(Z6, 2))))
    ),
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
