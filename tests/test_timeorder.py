from __future__ import annotations

import math

import numpy as np
import pytest

from qlax import (
    DomainError,
    AlgebraElement,
    GradedSeries,
    algebra,
    diffop_descriptor,
    diffop_element,
    matrix_descriptor,
    matrix_element,
)
from qlax.algebra import stacked_commutator, stacked_product
from qlax.timeorder import (
    FlowSample,
    OperatorPath,
    _integrate_chain,
    left_log_derivative_residual,
    time_ordered_exp,
)
from helpers import integrate_chain_reference

ROT = [[0.0, -1.0], [1.0, 0.0]]


def test_path_construction_and_evaluation():
    b = matrix_element(ROT)
    constant = OperatorPath.constant(b)
    assert constant.at(0.3) == b
    assert constant.degree == 0
    linear = OperatorPath.polynomial([AlgebraElement.zero(b.descriptor), b])
    assert np.array_equal(linear.at(2.0).data, 2.0 * np.array(ROT))
    with pytest.raises(DomainError):
        OperatorPath.constant(b, q0=0.0)
    with pytest.raises(DomainError):
        OperatorPath.constant(b, q0=1.5)


def test_scaling_transform():
    b = matrix_element(ROT)
    # constant path: q0 P(q0 t) = q0 B
    scaled = OperatorPath.constant(b).scaled(0.5)
    assert np.array_equal(scaled.at(7.0).data, 0.5 * np.array(ROT))
    # linear path t B: q0 P(q0 t) = q0^2 t B
    linear = OperatorPath.polynomial([AlgebraElement.zero(b.descriptor), b])
    scaled_linear = linear.scaled(0.5)
    assert np.abs(scaled_linear.at(1.0).data - 0.25 * np.array(ROT)).max() <= 1e-15
    # q0 = 1 is the identity transform
    same = linear.scaled(1.0)
    assert np.array_equal(same.at(0.7).data, linear.at(0.7).data)


def test_constant_path_matches_exponential_series():
    # grade i of the output is t^i B^i / i!, within 1e-8 at t = 1, h = 1e-3
    b = matrix_element(ROT)
    group = time_ordered_exp(OperatorPath.constant(b), q0=0.5, order=6, grid=(1e-3, 1.0))
    assert group.times[-1] == pytest.approx(1.0)
    last = group.series[-1]
    power = AlgebraElement.one(b.descriptor)
    for i in range(7):
        expected = power.data / math.factorial(i)
        assert np.abs(last.coeffs[i].data - expected).max() <= 1e-8
        power = power * b
    # group membership: grade 0 is the unit at every node
    for node in group.series[:: 100]:
        assert node.coeffs[0] == AlgebraElement.one(b.descriptor)
    assert group.series[0] == GradedSeries.unit(b.descriptor, 6)


def test_linear_path_grade_one_integral():
    # P(t) = t B gives grade-1 coefficient (q0 t^2 / 2) B
    b = matrix_element(ROT)
    path = OperatorPath.polynomial([AlgebraElement.zero(b.descriptor), b])
    q0 = 0.5
    group = time_ordered_exp(path, q0=q0, order=3, grid=(1e-3, 1.0))
    for k in (250, 500, 1000):
        t = group.times[k]
        expected = q0 * t * t / 2.0 * np.array(ROT)
        assert np.abs(group.series[k].coeffs[1].data - expected).max() <= 1e-10


def test_commuting_family_closed_form():
    # P(t) = f(t) B with scalar f: the series is exp of the integral
    b = matrix_element(ROT)
    desc = b.descriptor
    f_coeffs = [0.3, 0.8]  # f(t) = 0.3 + 0.8 t
    path = OperatorPath.polynomial([c * b for c in f_coeffs])
    q0 = 0.5
    order = 5
    group = time_ordered_exp(path, q0=q0, order=order, grid=(1e-3, 1.0))
    for k in (400, 1000):
        t = group.times[k]
        # integral of f(q0 s) ds over [0, t]
        integral = 0.3 * t + 0.8 * q0 * t * t / 2.0
        primitive = GradedSeries.single(desc, order, 1, integral * b)
        expected = primitive.exp()
        gap = max((x - y).norm()
                  for x, y in zip(group.series[k].coeffs, expected.coeffs))
        assert gap <= 1e-9


def test_grades_independent_of_truncation_order():
    b = matrix_element(ROT)
    path = OperatorPath.constant(b)
    low = time_ordered_exp(path, q0=0.5, order=3, grid=(5e-3, 0.25))
    high = time_ordered_exp(path, q0=0.5, order=7, grid=(5e-3, 0.25))
    for node_low, node_high in zip(low.series, high.series):
        for g in range(4):
            assert np.array_equal(node_low.coeffs[g].data, node_high.coeffs[g].data)


def test_constant_path_is_q0_independent():
    # with constant P the integrand P(q0 s) does not see q0 at all
    b = matrix_element(ROT)
    path = OperatorPath.constant(b)
    one = time_ordered_exp(path, q0=1.0, order=4, grid=(2e-3, 0.5))
    half = time_ordered_exp(path, q0=0.5, order=4, grid=(2e-3, 0.5))
    for a, c in zip(one.series, half.series):
        for g in range(5):
            assert np.array_equal(a.coeffs[g].data, c.coeffs[g].data)


def _signed_zero_element(rng, descriptor) -> AlgebraElement:
    """About half the entries zero and each complex entry real or imaginary, so
    that products meet terms such as ``(-a) * 0 - 0 * b = -0.0``."""
    values = rng.standard_normal(descriptor.shape)
    values[rng.random(descriptor.shape) < 0.5] = 0.0
    if descriptor.dtype == np.complex128:
        values = np.where(rng.random(descriptor.shape) < 0.5, values, 1j * values)
    return AlgebraElement(descriptor, values.astype(descriptor.dtype))


def _chains():
    """``(name, produce, path, base)``: the group and the bracket chain on real and
    complex 4x4 paths of degree 0, 1 and 2.

    A matrix product sums from +0.0, so it never returns -0.0; the group of
    ``-P`` with the sign applied after the product does, in every zero entry.
    """
    rng = np.random.default_rng(8)
    for field in ("real", "complex"):
        desc = matrix_descriptor(4, field)
        for degree in range(3):
            path = OperatorPath.polynomial(
                [_signed_zero_element(rng, desc) for _ in range(degree + 1)])
            yield (f"{field} group, degree {degree}",
                   lambda p, x, d=desc: stacked_product(d, p, x), path, AlgebraElement.one(desc))
            yield (f"{field} group of -P, degree {degree}",
                   lambda p, x, d=desc: -stacked_product(d, p, x), path,
                   AlgebraElement.one(desc))
            yield (f"{field} bracket, degree {degree}",
                   lambda p, x, d=desc: stacked_commutator(d, p, x), path,
                   _signed_zero_element(rng, desc))


# 8960 bytes hold 7 nodes of a complex 4x4 chain of order 4, 14 of a real one and
# 2 of the diffop chain: none of them divides the step count (50 or 25)
@pytest.mark.parametrize("block_bytes", [algebra.BLOCK_BYTES, 1, 8960])
def test_chain_matches_step_by_step_reference(monkeypatch, block_bytes):
    monkeypatch.setattr(algebra, "BLOCK_BYTES", block_bytes)
    signed_zeros = 0
    for name, produce, path, base in _chains():
        chain = _integrate_chain(produce, path, 0.7, base, 4, (0.02, 1.0))
        reference = integrate_chain_reference(produce, path, 0.7, base, 4, (0.02, 1.0))
        assert chain[0].tobytes() == reference[0].tobytes(), name
        assert chain[1].tobytes() == reference[1].tobytes(), name
        # the first slope; the loop sums its -0.0 entries into node 1 as 0.0 + (-0.0)
        floats = np.asarray(produce(path.sample(np.zeros(1)), base.data)).view(np.float64)
        signed_zeros += np.count_nonzero(np.signbit(floats) & (floats == 0.0))
    assert signed_zeros > 0

    desc = diffop_descriptor(5, 4)
    path = OperatorPath.polynomial([diffop_element(desc, {1: {-1: 0.5j, 1: -0.5j}}),
                                    diffop_element(desc, {0: {-1: 0.25, 1: 0.25}})])
    initial = diffop_element(desc, {2: {0: 1.0}, 0: {-1: 0.5, 1: 0.5}})
    for produce, base in ((stacked_product, AlgebraElement.one(desc)),
                          (stacked_commutator, initial)):
        args = (lambda p, x, f=produce: f(desc, p, x), path, 0.5, base, 3, (0.02, 0.5))
        values = _integrate_chain(*args)[1]
        reference = integrate_chain_reference(*args)[1]
        assert np.abs(values - reference).max() <= 1e-15 * np.abs(reference).max()


def test_left_log_derivative_residual_small():
    b = matrix_element(ROT)
    group = time_ordered_exp(OperatorPath.constant(b), q0=0.5, order=4, grid=(1e-3, 1.0))
    profile = left_log_derivative_residual(group, OperatorPath.constant(b), 0.5)
    assert profile.shape == (5,)
    assert profile.max() <= 1e-6


def test_trivial_group_path_zero_residual():
    desc = matrix_descriptor(2)
    zero_path = OperatorPath.constant(AlgebraElement.zero(desc))
    group = time_ordered_exp(zero_path, q0=0.5, order=3, grid=(1e-2, 0.1))
    profile = left_log_derivative_residual(group, zero_path, 0.5)
    assert profile.max() == 0.0


def test_corrupted_group_path_is_detected():
    b = matrix_element(ROT)
    path = OperatorPath.constant(b)
    group = time_ordered_exp(path, q0=0.5, order=4, grid=(1e-3, 1.0))
    corrupted_values = group.values.copy()
    corrupted_values[:, 2] = 0.0
    corrupted = FlowSample(group.times, corrupted_values, group.descriptor,
                           step=group.step, order=group.order, q0=group.q0)
    profile = left_log_derivative_residual(corrupted, path, 0.5)
    assert profile[2] >= 1e-2


def test_grid_validation():
    b = matrix_element(ROT)
    path = OperatorPath.constant(b)
    with pytest.raises(DomainError):
        time_ordered_exp(path, q0=0.5, order=4, grid=(0.0, 1.0))
    with pytest.raises(DomainError):
        time_ordered_exp(path, q0=0.5, order=4, grid=(0.3, 0.1))
    with pytest.raises(DomainError):
        time_ordered_exp(path, q0=0.5, order=0, grid=(1e-3, 1.0))
