from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from qlax import (
    algebra,
    DomainError,
    CapabilityError,
    ShapeMismatchError,
    AlgebraElement,
    GradedSeries,
    diffop_descriptor,
    matrix_descriptor,
    matrix_element,
)
from qlax.series import dense, graded_product, right_divide
from helpers import E12, E21, rand_diffop, rand_matrix, rand_series, series_gap, rel_gap


def _single(desc, grade, element, order):
    return GradedSeries.single(desc, order, grade, element)


def test_unit_is_multiplicative_identity():
    desc = matrix_descriptor(3)
    rng = np.random.default_rng(1)
    s = rand_series(rng, desc, 6)
    one = GradedSeries.unit(desc, 6)
    assert series_gap(s * one, s) == 0.0
    assert series_gap(one * s, s) == 0.0


def test_single_grade_product():
    # (q E12) (q E21) has only a grade-2 coefficient, diag(1, 0)
    desc = matrix_descriptor(2)
    s = _single(desc, 1, matrix_element(E12), 4)
    t = _single(desc, 1, matrix_element(E21), 4)
    product = s * t
    assert np.array_equal(product.coeffs[2].data, np.diag([1.0, 0.0]))
    for grade in (0, 1, 3, 4):
        assert product.coeffs[grade].is_zero


def test_truncation_drops_high_grades():
    desc = matrix_descriptor(2)
    s = _single(desc, 3, matrix_element(E12), 4)
    t = _single(desc, 2, matrix_element(E21), 4)
    assert all(c.is_zero for c in (s * t).coeffs)  # grade 5 > N=4


def test_mul_associative_sampled():
    rng = np.random.default_rng(42)
    desc = matrix_descriptor(3)
    for _ in range(25):
        s, t, u = (rand_series(rng, desc, 6) for _ in range(3))
        left = (s * t) * u
        right = s * (t * u)
        assert rel_gap(left, right) <= 1e-12


def test_mul_distributes():
    rng = np.random.default_rng(43)
    desc = matrix_descriptor(3)
    s, t, u = (rand_series(rng, desc, 5) for _ in range(3))
    assert rel_gap((s + t) * u, s * u + t * u) <= 1e-12


def test_exp_literals():
    desc = matrix_descriptor(2)
    zero = GradedSeries.zero(desc, 5)
    assert zero.exp() == GradedSeries.unit(desc, 5)
    # exp(q E12) = 1 + q E12 exactly since E12^2 = 0
    s = _single(desc, 1, matrix_element(E12), 5)
    e = s.exp()
    assert e.coeffs[0] == AlgebraElement.one(desc)
    assert e.coeffs[1] == matrix_element(E12)
    assert all(e.coeffs[g].is_zero for g in range(2, 6))
    # exp(q I) carries I/k! at grade k
    i_series = _single(desc, 1, AlgebraElement.one(desc), 5)
    e2 = i_series.exp()
    for k in range(6):
        expected = np.eye(2) / math.factorial(k)
        assert np.abs(e2.coeffs[k].data - expected).max() <= 1e-15


def test_exp_requires_positive_valuation():
    desc = matrix_descriptor(2)
    with pytest.raises(DomainError):
        GradedSeries.unit(desc, 3).exp()


def test_log_literals():
    desc = matrix_descriptor(2)
    unit = GradedSeries.unit(desc, 4)
    assert unit.log() == GradedSeries.zero(desc, 4)
    s = _single(desc, 1, matrix_element(E12), 4)
    u = GradedSeries([AlgebraElement.one(desc), matrix_element(E12)]
                     + [AlgebraElement.zero(desc)] * 3)
    assert series_gap(u.log(), s) == 0.0
    with pytest.raises(DomainError):
        GradedSeries.zero(desc, 4).log()


def test_exp_log_roundtrip_sampled():
    # 200 random series, n <= 6, N <= 10, grade-wise relative error <= 1e-10
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        order = int(rng.integers(2, 11))
        desc = matrix_descriptor(n)
        s = rand_series(rng, desc, order, from_grade=1)
        assert rel_gap(s.exp().log(), s) <= 1e-10
        u = s.exp()
        assert rel_gap(u.log().exp(), u) <= 1e-10


def test_inverse_literals_and_property():
    desc = matrix_descriptor(2)
    unit = GradedSeries.unit(desc, 4)
    assert unit.inverse() == unit
    u = GradedSeries([AlgebraElement.one(desc), matrix_element(E12)]
                     + [AlgebraElement.zero(desc)] * 3)
    inv = u.inverse()
    assert np.array_equal(inv.coeffs[1].data, -np.array(E12))
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = GradedSeries([AlgebraElement.one(desc)]
                         + [rand_matrix(rng, desc) for _ in range(6)])
        assert series_gap(w * w.inverse(), GradedSeries.unit(desc, 6)) <= 1e-10
        assert series_gap(w.inverse() * w, GradedSeries.unit(desc, 6)) <= 1e-10
    with pytest.raises(DomainError):
        GradedSeries.zero(desc, 4).inverse()


def _division_stacks(kind: str, order: int = 4):
    """Random ``x`` and ``g`` laid out as a degree-1 flow's coefficients, ``g``'s grade 0
    the unit; grade 2 of ``g`` and every other coefficient of ``x`` are zero, so pairs with
    a zero factor are skipped."""
    rng = np.random.default_rng({"real": 50, "complex": 51, "diffop": 52}[kind])
    if kind == "diffop":
        desc = diffop_descriptor(8, 8)

        def draw():
            return rand_diffop(rng, desc, 1, 1).data
    else:
        desc = matrix_descriptor(3, kind)

        def draw():
            return rand_matrix(rng, desc).data

    x = [np.array([draw() for _ in range(i + 1)]) for i in range(order + 1)]
    g = [algebra.unit_payload(desc)[None]] + [np.array([draw() for _ in range(i + 1)])
                                              for i in range(1, order + 1)]
    g[2][:] = 0.0
    for grade in x:
        grade[::2] = 0.0
    return desc, x, g


def _polynomial_product(desc, x, g) -> np.ndarray:
    return graded_product(dense(x), dense(g), lambda a, b: algebra.stacked_product(desc, a, b))


@pytest.mark.parametrize("kind", ["real", "complex", "diffop"])
def test_right_divide_recovers_the_dividend(monkeypatch, kind):
    desc, x, g = _division_stacks(kind)
    y = right_divide(desc, x, g)
    assert [len(grade) for grade in y] == [len(grade) for grade in x]
    gap = np.abs(_polynomial_product(desc, y, g) - dense(x)).max()
    assert gap <= 1e-11 * max(np.abs(grade).max() for grade in x)
    monkeypatch.setattr(algebra, "BLOCK_BYTES", 1)
    assert np.concatenate(right_divide(desc, x, g)).tobytes() == np.concatenate(y).tobytes()


@pytest.mark.parametrize("kind", ["real", "complex", "diffop"])
def test_right_divide_rejects_a_non_unit_head(kind):
    desc, x, g = _division_stacks(kind)
    unit = algebra.unit_payload(desc)
    with pytest.raises(DomainError):
        right_divide(desc, x, [2.0 * unit[None]] + g[1:])
    with pytest.raises(DomainError):  # the unit must be grade 0's only coefficient
        right_divide(desc, [np.stack([x[0][0]] * 2)] + x[1:], [np.stack([unit] * 2)] + g[1:])
    with pytest.raises(ShapeMismatchError):
        right_divide(desc, x[:1] + [x[1][:1]] + x[2:], g)


def test_unit_inverse_with_invertible_head():
    desc = matrix_descriptor(3)
    rng = np.random.default_rng(9)
    # head 2I: inverse head is I/2
    two_i = AlgebraElement(desc, 2.0 * np.eye(3))
    u = GradedSeries([two_i] + [AlgebraElement.zero(desc)] * 3)
    assert np.abs(u.unit_inverse().coeffs[0].data - np.eye(3) / 2).max() <= 1e-15
    # head I reduces to the unit-headed inverse
    v = GradedSeries([AlgebraElement.one(desc)] + [rand_matrix(rng, desc) for _ in range(3)])
    assert series_gap(v.unit_inverse(), v.inverse()) <= 1e-12
    # random near-identity heads
    for _ in range(10):
        head = AlgebraElement(desc, np.eye(3) + 0.2 * rng.standard_normal((3, 3)))
        w = GradedSeries([head] + [rand_matrix(rng, desc) for _ in range(4)])
        assert series_gap(w * w.unit_inverse(), GradedSeries.unit(desc, 4)) <= 1e-9
        assert series_gap(w.unit_inverse() * w, GradedSeries.unit(desc, 4)) <= 1e-9


def test_unit_inverse_rejects_singular_and_diffop():
    desc = matrix_descriptor(2)
    singular = AlgebraElement(desc, np.array([[1.0, 0.0], [0.0, 0.0]]))
    u = GradedSeries([singular, matrix_element(E21)] + [AlgebraElement.zero(desc)])
    with pytest.raises(DomainError):
        u.unit_inverse()
    d_desc = diffop_descriptor(1, 2)
    with pytest.raises(CapabilityError):
        GradedSeries.unit(d_desc, 2).unit_inverse()


def test_valuation():
    desc = matrix_descriptor(2)
    s = _single(desc, 2, matrix_element(E12), 4)
    assert s.valuation() == 2
    assert GradedSeries.unit(desc, 4).valuation() == 0
    assert GradedSeries.zero(desc, 4).valuation() == math.inf


def test_evaluate():
    desc = matrix_descriptor(2)
    u = GradedSeries([AlgebraElement.one(desc), matrix_element(E12)]
                     + [AlgebraElement.zero(desc)] * 2)
    assert np.array_equal(u.evaluate(0.0).data, np.eye(2))
    expected = np.eye(2) + 0.5 * np.array(E12)
    assert np.array_equal(u.evaluate(0.5).data, expected)
    # scalar Taylor: evaluate(exp(q I), q0) matches truncated e^{q0}
    order = 6
    i_series = _single(desc, 1, AlgebraElement.one(desc), order)
    value = i_series.exp().evaluate(0.3).data[0, 0]
    taylor = sum(0.3 ** k / math.factorial(k) for k in range(order + 1))
    assert value == pytest.approx(taylor, abs=1e-15)
    remainder = 0.3 ** (order + 1) / math.factorial(order + 1)
    assert abs(value - math.exp(0.3)) <= 2 * remainder


def test_shape_guards():
    a = GradedSeries.unit(matrix_descriptor(2), 4)
    b = GradedSeries.unit(matrix_descriptor(3), 4)
    c = GradedSeries.unit(matrix_descriptor(2), 5)
    with pytest.raises(ShapeMismatchError):
        a + b
    with pytest.raises(ShapeMismatchError):
        a * c


def _contract_series(kind: str):
    """Two order-4 series with a zero grade each, and their algebra.

    Half the matrix entries are zero and each complex entry is real or
    imaginary, so complex products meet ``-0.0``.  Every nonzero diffop
    coefficient fills the same rows and modes, so each product of a pair
    reaches the same window inside a stack as on its own.
    """
    rng = np.random.default_rng(11)
    if kind == "diffop":
        desc = diffop_descriptor(4, 4)
        center = slice(desc.max_mode - 1, desc.max_mode + 2)

        def draw():
            data = np.zeros(desc.shape, dtype=np.complex128)
            data[:2, center] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            return AlgebraElement(desc, data)
    else:
        desc = matrix_descriptor(3, kind)

        def draw():
            values = rng.standard_normal(desc.shape)
            values[rng.random(desc.shape) < 0.5] = 0.0
            if kind == "complex":
                values = np.where(rng.random(desc.shape) < 0.5, values, 1j * values)
            return AlgebraElement(desc, values)
    zero = AlgebraElement.zero(desc)
    a = GradedSeries([draw(), draw(), zero, draw(), draw()])
    b = GradedSeries([draw(), zero, draw(), draw(), zero])
    return desc, a, b


def _cauchy_by_coefficient(a: GradedSeries, b: GradedSeries) -> list[AlgebraElement]:
    """``graded_product``'s rules on elements: ``i`` ascending, the first term
    assigned, pairs with a zero factor skipped."""
    grades = []
    for n in range(a.order + 1):
        total = AlgebraElement.zero(a.descriptor)
        started = False
        for i in range(n + 1):
            x, y = a.coeffs[i], b.coeffs[n - i]
            if x.is_zero or y.is_zero:
                continue
            total = total + x * y if started else x * y
            started = True
        grades.append(total)
    return grades


@pytest.mark.parametrize("kind", ["real", "complex", "diffop"])
def test_series_is_one_array_with_coefficient_arithmetic(kind):
    desc, a, b = _contract_series(kind)
    assert GradedSeries.__slots__ == ("descriptor", "values")
    assert a.values.shape == (5, *desc.shape)
    with pytest.raises(ValueError):
        a.values[0, 0, 0] = 1.0
    for bad in (np.zeros(desc.shape), np.zeros((0, *desc.shape)),
                np.zeros((2, desc.shape[0] + 1, desc.shape[1]))):
        with pytest.raises(ShapeMismatchError):
            GradedSeries.from_values(desc, bad)
    scalar = 0.37 if kind == "real" else 0.37 - 0.5j
    cases = [(a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)]),
             (a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)]),
             (a * scalar, [x * scalar for x in a.coeffs]),
             (scalar * a, [scalar * x for x in a.coeffs]),
             (a * b, _cauchy_by_coefficient(a, b)),
             (b * a, _cauchy_by_coefficient(b, a))]
    for series, expected in cases:
        assert series.values.tobytes() == np.stack([c.data for c in expected]).tobytes()


@st.composite
def _coefficients(draw, kinds=("real", "complex", "diffop")):
    """A real or complex 3x3, or a diffop, algebra (one of ``kinds``); an order N in 1..6
    and a path degree in 0..3; and a draw of one coefficient, zero one time in four.  A
    diffop coefficient has orders <= 1 and modes |m| <= 1, so the window J = M = N + 1
    holds a product of N + 1."""
    kind = draw(st.sampled_from(kinds))
    order, degree = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diffop":
        desc = diffop_descriptor(order + 1, order + 1)

        def element():
            return rand_diffop(rng, desc, 1, 1)
    else:
        desc = matrix_descriptor(3, kind)

        def element():
            return rand_matrix(rng, desc)

    def coefficient():
        return element().data if rng.random() >= 0.25 else np.zeros(desc.shape, desc.dtype)

    return desc, order, degree, coefficient


def _polynomial_grades(coefficient, order: int, degree: int) -> list[np.ndarray]:
    """Stacks laid out as the coefficients of a degree-``degree`` path's flow."""
    return [np.array([coefficient() for _ in range(i * degree + 1)]) for i in range(order + 1)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_coefficients())
def test_graded_product_of_one_power_layouts_is_the_cauchy_product(case):
    desc, order, _, coefficient = case
    a, b = (GradedSeries.from_values(desc, [coefficient() for _ in range(order + 1)])
            for _ in range(2))
    product = graded_product(a.values[:, None], b.values[:, None],
                             lambda x, y: algebra.stacked_product(desc, x, y))[:, 0]
    expected = np.stack([c.data for c in _cauchy_by_coefficient(a, b)])
    if desc.backend == algebra.MATRIX:
        assert product.tobytes() == expected.tobytes()
    else:
        # the diffop kernel sizes its contraction by the spans of every pair in its call,
        # so a pair's last bits depend on the others (ROADMAP item 7)
        assert np.abs(product - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_coefficients())
def test_right_divide_then_graded_product_recovers_the_dividend(case):
    desc, order, degree, coefficient = case
    x, g = (_polynomial_grades(coefficient, order, degree) for _ in range(2))
    g[0] = algebra.unit_payload(desc)[None]
    y = right_divide(desc, x, g)
    scale = max(1.0, *(np.abs(grade).max() for grade in x + y))
    assert np.abs(_polynomial_product(desc, y, g) - dense(x)).max() <= 1e-12 * scale


def _batch_independent(desc, x, g) -> bool:
    """Whether each pair in every diffop kernel call of ``right_divide(desc, x, g)`` has the
    bits of a call on that pair alone."""
    original, calls = algebra._diffop_products, []

    def recorded(descriptor, a, b):
        calls.append((a, b, original(descriptor, a, b)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "_diffop_products", recorded)
        right_divide(desc, x, g)
    return all(out[k].tobytes() == original(desc, a[k:k + 1], b[k:k + 1]).tobytes()
               for a, b, out in calls for k in range(len(a)))


def test_right_divide_pairs_have_the_bits_of_lone_calls():
    # one kernel call per factor grade: these pairs' factors share their call's spans
    assert _batch_independent(*_division_stacks("diffop"))


# The kernel sizes a call by the spans of all its pairs, and right_divide's pairs of one
# factor grade share a call (ROADMAP item 7), so a pair's last bits can still depend on the
# others: on their spans where its own are narrower, and on how many there are.  The draws
# are not shrunk, since they are expected to fail.
@pytest.mark.xfail(strict=True, reason="a pair's diffop bits depend on its call's other pairs")
@settings(derandomize=True, max_examples=40, deadline=None, phases=[Phase.generate])
@given(_coefficients(("diffop",)))
def test_right_divide_pairs_have_the_bits_of_lone_calls_on_random_layouts(case):
    desc, order, degree, coefficient = case
    x, g = (_polynomial_grades(coefficient, order, degree) for _ in range(2))
    g[0] = algebra.unit_payload(desc)[None]
    assert _batch_independent(desc, x, g)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_coefficients())
def test_exp_then_log_round_trips(case):
    desc, order, _, coefficient = case
    s = GradedSeries.from_values(desc, [np.zeros(desc.shape)]
                                 + [0.5 * coefficient() for _ in range(order)])
    u = s.exp()
    scale = max(1.0, np.abs(u.values).max())
    assert np.abs(u.log().values - s.values).max() <= 1e-12 * scale
