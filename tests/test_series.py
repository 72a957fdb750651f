from __future__ import annotations

import math

import numpy as np
import pytest

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
from qlax.series import cauchy_product, right_divide
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


def _division_stacks(kind: str, nodes: int = 5, order: int = 4):
    """Random ``x`` and unit-headed ``g`` stacks; node 0 of ``g`` is the unit series
    and node 1 of ``x`` has zero grades, so zero pairs are skipped on some nodes only."""
    rng = np.random.default_rng({"real": 50, "complex": 51, "diffop": 52}[kind])
    if kind == "diffop":
        desc = diffop_descriptor(8, 8)

        def draw():
            return rand_diffop(rng, desc, 1, 1).data
    else:
        desc = matrix_descriptor(3, kind)

        def draw():
            return rand_matrix(rng, desc).data
    x = np.array([[draw() for _ in range(order + 1)] for _ in range(nodes)])
    g = np.array([[draw() for _ in range(order + 1)] for _ in range(nodes)])
    g[:, 0] = algebra.unit_payload(desc)
    g[0, 1:] = 0.0
    x[1, ::2] = 0.0
    return desc, x, g


@pytest.mark.parametrize("kind", ["real", "complex", "diffop"])
def test_right_divide_recovers_the_dividend(monkeypatch, kind):
    desc, x, g = _division_stacks(kind)
    y = right_divide(desc, x, g)
    assert np.abs(cauchy_product(desc, y, g) - x).max() <= 1e-11 * np.abs(x).max()
    # one divisor node pairs with every dividend node
    assert right_divide(desc, x, g[2:3]).tobytes() == right_divide(
        desc, x, np.broadcast_to(g[2:3], g.shape)).tobytes()
    if kind != "diffop":
        # a matrix node gets the bits of its own call; the diffop kernel sizes
        # its contraction by the spans of the whole stack of pairs it is given
        for k in range(len(x)):
            assert right_divide(desc, x[k:k + 1], g[k:k + 1]).tobytes() == y[k].tobytes()
    monkeypatch.setattr(algebra, "BLOCK_BYTES", 1)
    assert right_divide(desc, x, g).tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", ["real", "complex", "diffop"])
def test_right_divide_rejects_a_non_unit_head(kind):
    desc, x, g = _division_stacks(kind)
    g[3, 0] *= 2.0
    with pytest.raises(DomainError):
        right_divide(desc, x, g)


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
