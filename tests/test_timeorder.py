from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qlax import (
    DomainError,
    AlgebraElement,
    GradedSeries,
    algebra,
    timeorder,
    diffop_descriptor,
    diffop_element,
    matrix_descriptor,
    matrix_element,
)
from qlax.algebra import stacked_commutator, stacked_product
from qlax.timeorder import (
    FlowSample,
    LaxProblem,
    OperatorPath,
    _integrate_polynomial,
    left_log_derivative_residual,
    time_ordered_exp,
)
from helpers import integrate_chain_reference, rand_matrix

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
    desc = diffop_descriptor(7, 7)
    diffop = OperatorPath.polynomial([diffop_element(desc, {1: {-1: 0.5j, 1: -0.5j}}),
                                      diffop_element(desc, {0: {-1: 0.25, 1: 0.25}})])
    for path in (OperatorPath.constant(matrix_element(ROT)), diffop):
        low = time_ordered_exp(path, q0=0.5, order=3, grid=(5e-3, 0.25))
        high = time_ordered_exp(path, q0=0.5, order=7, grid=(5e-3, 0.25))
        assert high.nodes(slice(None))[:, 7].any()
        assert np.array_equal(low.nodes(slice(None)), high.nodes(slice(None))[:, :4])


def test_constant_path_is_q0_independent():
    # with constant P the integrand P(q0 s) does not see q0 at all
    b = matrix_element(ROT)
    path = OperatorPath.constant(b)
    one = time_ordered_exp(path, q0=1.0, order=4, grid=(2e-3, 0.5))
    half = time_ordered_exp(path, q0=0.5, order=4, grid=(2e-3, 0.5))
    for a, c in zip(one.series, half.series):
        for g in range(5):
            assert np.array_equal(a.coeffs[g].data, c.coeffs[g].data)


def _chains():
    """``(name, produce, path, base)``: the group and the bracket chain on real and
    complex 4x4 paths of degree 0, 1 and 2, and on a diffop path of degree 1."""
    rng = np.random.default_rng(8)
    for field in ("real", "complex"):
        desc = matrix_descriptor(4, field)
        for degree in range(3):
            path = OperatorPath.polynomial([rand_matrix(rng, desc) * 0.5
                                            for _ in range(degree + 1)])
            yield (f"{field} group, degree {degree}",
                   lambda p, x, d=desc: stacked_product(d, p, x), path, AlgebraElement.one(desc))
            yield (f"{field} bracket, degree {degree}",
                   lambda p, x, d=desc: stacked_commutator(d, p, x), path,
                   rand_matrix(rng, desc))
    desc = diffop_descriptor(7, 6)
    path = OperatorPath.polynomial([diffop_element(desc, {1: {-1: 0.5j, 1: -0.5j}}),
                                    diffop_element(desc, {0: {-1: 0.25, 1: 0.25}})])
    initial = diffop_element(desc, {2: {0: 1.0}, 0: {-1: 0.5, 1: 0.5}})
    yield "diffop group", lambda p, x: stacked_product(desc, p, x), path, AlgebraElement.one(desc)
    yield "diffop bracket", lambda p, x: stacked_commutator(desc, p, x), path, initial


# the default, one item per block, and a block size that is no power of two
@pytest.mark.parametrize("block_bytes", [algebra.BLOCK_BYTES, 1, 8960])
def test_chain_matches_step_by_step_reference(monkeypatch, block_bytes):
    # RK4's global error is O(h^4), so its gap to the exact grades falls 16x per
    # halving of h; at order 5 even a constant path's top grades (degree 4 and 5
    # in t) are past what RK4 integrates exactly.  The gaps here read
    # 0.008..0.81 h^4 relative to the largest coefficient, with ratios 15.8..16.05.
    # The exact route's bits do not depend on the block size of the stack kernels.
    def exact(produce, path, base, step):
        return _integrate_polynomial(produce, LaxProblem(base, path, 0.7, 5, (step, 1.0)))

    chains = list(_chains())
    default = [[exact(produce, path, base, step).nodes(slice(None)) for step in (0.04, 0.02)]
               for _, produce, path, base in chains]
    monkeypatch.setattr(algebra, "BLOCK_BYTES", block_bytes)
    for (name, produce, path, base), pinned in zip(chains, default):
        gaps = []
        for step, values in zip((0.04, 0.02), pinned):
            flow = exact(produce, path, base, step)
            sampled = flow.nodes(slice(None))
            assert sampled.tobytes() == values.tobytes(), name
            reference = integrate_chain_reference(produce, path, 0.7, base, 5, (step, 1.0))
            assert np.array_equal(flow.times, reference[0]), name
            gaps.append(np.abs(sampled - reference[1]).max() / np.abs(reference[1]).max())
            assert gaps[-1] <= step ** 4, name
        assert 15.0 <= gaps[0] / gaps[1] <= 17.0, (name, gaps)


def test_horner_writes_each_grade_in_place():
    # one grade's nodes take 1.3 MB here; everything the sampler holds beside the
    # whole sample (the scaled times and the table of 2001 x 25 powers) takes 0.42 MB
    rng = np.random.default_rng(5)
    path = OperatorPath.polynomial([matrix_element(rng.standard_normal((9, 9)) * 0.3)
                                    for _ in range(3)])
    group = time_ordered_exp(path, 0.5, 8, (5e-4, 1.0))
    group.nodes(slice(None))
    tracemalloc.start()
    try:
        values = group.nodes(slice(None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes <= values[:, 0].nbytes // 2


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
    coefficients = [np.zeros_like(stack) if i == 2 else stack
                    for i, stack in enumerate(group.coefficients)]
    corrupted = FlowSample(group.times, group.descriptor, coefficients, step=group.step,
                           q0=group.q0)
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
    for grid in ((1e-3, np.inf), (1e-3, np.nan), (np.nan, 1.0), (np.inf, np.inf), (1e-310, 1.0)):
        with pytest.raises(DomainError):
            time_ordered_exp(path, q0=0.5, order=4, grid=grid)


def test_time_ordered_exp_obeys_the_size_cap(monkeypatch):
    # a real 2x2 problem of order 2 on 11 nodes counts, in 32-byte payloads of 4
    # entries, the group's and the flow's polynomials, 2 * 3 * 32 = 192; the
    # conjugation's largest call, L_0 by g_1 and g_2, 2 pairs of 32 + 8 * 4 + 64 bytes
    # beside 4 * 3 payloads, 256 + 384 = 640; one block, here all 11 nodes, of 3 * 32
    # bytes and a table of 2 + 2 floats a node, 11 * 128 = 1408; and the evaluated
    # stacks and floats, 11 * (3 * 32 + 64) = 1760: 4000 in all
    path = OperatorPath.constant(matrix_element(ROT))
    monkeypatch.setattr(timeorder, "MAX_FLOW_BYTES", 3999)
    with pytest.raises(DomainError, match="polynomials, product stacks and node stacks exceed"):
        time_ordered_exp(path, q0=0.5, order=2, grid=(0.1, 1.0))
    monkeypatch.setattr(timeorder, "MAX_FLOW_BYTES", 4000)
    group = time_ordered_exp(path, q0=0.5, order=2, grid=(0.1, 1.0))
    assert group.nodes(slice(None)).nbytes == 1056
