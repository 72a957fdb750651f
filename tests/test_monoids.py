from __future__ import annotations

import numpy as np
import pytest

from qlax import (
    CIRCLE,
    CLOSED,
    GR1_ELEMENTS,
    LEFT_OPEN,
    NEUTRAL_INDEX,
    OPEN,
    RIGHT_OPEN,
    DomainError,
    ShapeMismatchError,
    AlgebraElement,
    GradedSeries,
    IndexedSeries,
    closure,
    composition_table,
    generated_monoid,
    glue,
    gr1_monoid,
    is_stable,
    matrix_descriptor,
    matrix_element,
    natural_monoid,
)
from helpers import E12, E21, rand_matrix

# The full gluing table, worked out from the boundary-point rule and frozen.
# first * second is defined iff first has its initial point and second has its
# final point; the result takes its initial type from second, final from first.
EXPECTED_DEFINED = {
    (CLOSED, CLOSED): CLOSED,
    (CLOSED, LEFT_OPEN): LEFT_OPEN,
    (RIGHT_OPEN, CLOSED): RIGHT_OPEN,
    (RIGHT_OPEN, LEFT_OPEN): OPEN,
}


def test_five_manifold_types():
    assert len(GR1_ELEMENTS) == 5
    assert len(set(GR1_ELEMENTS)) == 5
    assert CIRCLE.closed_loop and not CIRCLE.has_initial and not CIRCLE.has_final
    assert CLOSED.has_initial and CLOSED.has_final


def test_glue_matches_frozen_table():
    for first in GR1_ELEMENTS:
        for second in GR1_ELEMENTS:
            expected = EXPECTED_DEFINED.get((first, second))
            assert glue(first, second) == expected


def test_exactly_four_defined_among_25():
    table = [(a, b) for a in GR1_ELEMENTS for b in GR1_ELEMENTS
             if glue(a, b) is not None]
    assert len(table) == 4
    assert set(table) == set(EXPECTED_DEFINED)


def test_circle_composes_with_nothing():
    for other in GR1_ELEMENTS:
        assert glue(CIRCLE, other) is None
        assert glue(other, CIRCLE) is None


def test_grade1_enumeration_has_five_elements():
    monoid = gr1_monoid()
    grade1 = monoid.enumerate_grade(1)
    assert len(grade1) == 5
    assert {index[0] for index in grade1} == set(GR1_ELEMENTS)
    assert all(index[1] == 1 for index in grade1)
    assert monoid.enumerate_grade(0) == (NEUTRAL_INDEX,)


def test_compose_indices_examples():
    monoid = gr1_monoid()
    assert monoid.compose((CLOSED, 1), (CLOSED, 1)) == (CLOSED, 2)
    assert monoid.compose((CLOSED, 1), (LEFT_OPEN, 1)) == (LEFT_OPEN, 2)
    assert monoid.compose((RIGHT_OPEN, 2), (CLOSED, 3)) == (RIGHT_OPEN, 5)
    assert monoid.compose((CIRCLE, 1), (CLOSED, 1)) is None
    assert monoid.compose((CLOSED, 1), NEUTRAL_INDEX) == (CLOSED, 1)
    assert monoid.compose(NEUTRAL_INDEX, (OPEN, 4)) == (OPEN, 4)


def test_grade_additivity_exhaustive():
    monoid = gr1_monoid()
    for ga in (1, 2):
        for gb in (1, 2):
            for a in monoid.enumerate_grade(ga):
                for b in monoid.enumerate_grade(gb):
                    product = monoid.compose(a, b)
                    if product is not None:
                        assert monoid.grade(product) == ga + gb


def test_associativity_exhaustive_over_gr1():
    # partial-monoid associativity: whenever both sides are defined they agree,
    # and definedness itself matches (checked over all grade-1 triples)
    monoid = gr1_monoid()
    members = monoid.enumerate_grade(1)
    for a in members:
        for b in members:
            for c in members:
                ab = monoid.compose(a, b)
                bc = monoid.compose(b, c)
                left = monoid.compose(ab, c) if ab is not None else None
                right = monoid.compose(a, bc) if bc is not None else None
                assert left == right


def test_natural_monoid_is_plain_addition():
    monoid = natural_monoid()
    assert monoid.compose(2, 3) == 5
    assert monoid.neutral == 0
    assert monoid.enumerate_grade(4) == (4,)
    with pytest.raises(DomainError):
        monoid.enumerate_grade(-1)


def test_closure_example():
    monoid = gr1_monoid()
    family = closure(monoid, [(CLOSED, 1)], max_grade=2)
    assert family == {(CLOSED, 1), (CLOSED, 2)}
    generated = generated_monoid(monoid, [(CLOSED, 1)], max_grade=2)
    assert generated.enumerate_grade(2) == ((CLOSED, 2),)


def test_stability_checker():
    monoid = gr1_monoid()
    stable = {(CLOSED, g) for g in (1, 2, 3)}
    assert is_stable(monoid, stable, max_grade=3)
    assert not is_stable(monoid, {(RIGHT_OPEN, 1), (LEFT_OPEN, 1)}, max_grade=3)


def test_composition_table_shape():
    table = composition_table(gr1_monoid(), grade=1)
    assert len(table) == 25
    defined = [row for row in table if row[2] is not None]
    assert len(defined) == 4


def _indexed(monoid, desc, order, terms):
    return IndexedSeries(monoid, desc, order, terms)


def test_indexed_series_unit_and_single_products():
    monoid = gr1_monoid()
    desc = matrix_descriptor(2)
    a = matrix_element(E12)
    b = matrix_element(E21)
    s = _indexed(monoid, desc, 4, {(CLOSED, 1): a})
    t = _indexed(monoid, desc, 4, {(LEFT_OPEN, 1): b})
    unit = IndexedSeries.unit(monoid, desc, 4)
    assert (s * unit) == s
    assert (unit * s) == s
    product = s * t
    assert set(product.terms) == {(LEFT_OPEN, 2)}
    assert np.array_equal(product.coefficient((LEFT_OPEN, 2)).data, (a * b).data)


def test_indexed_series_sum():
    monoid = gr1_monoid()
    desc = matrix_descriptor(2)
    a = matrix_element(E12)
    b = matrix_element(E21)
    s = _indexed(monoid, desc, 4, {(CLOSED, 1): a})
    t = _indexed(monoid, desc, 4, {(LEFT_OPEN, 1): b, (CLOSED, 1): b})
    total = s + t
    assert set(total.terms) == {(CLOSED, 1), (LEFT_OPEN, 1)}
    assert np.array_equal(total.coefficient((CLOSED, 1)).data, (a + b).data)
    assert total.coefficient((LEFT_OPEN, 1)) == b
    assert (s + _indexed(monoid, desc, 4, {(CLOSED, 1): -1.0 * a})).terms == {}
    assert s.__add__(a) is NotImplemented
    with pytest.raises(ShapeMismatchError):
        s + _indexed(monoid, desc, 3, {})
    with pytest.raises(ShapeMismatchError):
        s + _indexed(natural_monoid(), desc, 4, {})


def test_undefined_composition_annihilates():
    monoid = gr1_monoid()
    desc = matrix_descriptor(2)
    s = _indexed(monoid, desc, 3, {(CIRCLE, 1): matrix_element(E12)})
    t = _indexed(monoid, desc, 3, {(CIRCLE, 1): matrix_element(E21)})
    assert (s * t).terms == {}


def test_indexed_series_associativity_sampled():
    rng = np.random.default_rng(12)
    monoid = gr1_monoid()
    desc = matrix_descriptor(2)
    indexes = [(m, 1) for m in GR1_ELEMENTS] + [NEUTRAL_INDEX]
    for _ in range(20):
        built = []
        for _ in range(3):
            chosen = rng.choice(len(indexes), size=3, replace=False)
            terms = {indexes[int(k)]: rand_matrix(rng, desc) for k in chosen}
            built.append(_indexed(monoid, desc, 3, terms))
        s, t, u = built
        left = (s * t) * u
        right = s * (t * u)
        assert set(left.terms) == set(right.terms)
        for index in left.terms:
            gap = (left.terms[index] - right.terms[index]).norm()
            assert gap <= 1e-12


def test_natural_indexed_series_equals_graded_series():
    # refining the grade line to the trivial monoid changes nothing
    rng = np.random.default_rng(13)
    monoid = natural_monoid()
    desc = matrix_descriptor(3)
    order = 5
    a_coeffs = [rand_matrix(rng, desc) for _ in range(order + 1)]
    b_coeffs = [rand_matrix(rng, desc) for _ in range(order + 1)]
    graded = GradedSeries(a_coeffs) * GradedSeries(b_coeffs)
    indexed = (_indexed(monoid, desc, order, dict(enumerate(a_coeffs)))
               * _indexed(monoid, desc, order, dict(enumerate(b_coeffs))))
    for grade in range(order + 1):
        gap = (indexed.coefficient(grade) - graded.coeffs[grade]).norm()
        assert gap <= 1e-12


def test_indexed_series_validation():
    monoid = gr1_monoid()
    desc = matrix_descriptor(2)
    with pytest.raises(DomainError):
        _indexed(monoid, desc, 2, {(CLOSED, 3): matrix_element(E12)})
    with pytest.raises(DomainError):
        IndexedSeries(monoid, desc, 0, {})
