from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from qlax import (
    CapabilityError,
    DomainError,
    AlgebraElement,
    ShapeMismatchError,
    diffop_descriptor,
    diffop_element,
    matrix_descriptor,
    matrix_element,
)
from qlax.lax import (
    LaxFlowResult,
    LaxProblem,
    PRESET_NAMES,
    conjugate,
    conserved_trace_tables,
    flow_difference,
    integrate_directly,
    lax_residual,
    oracle_integrate,
    preset_problem,
    solve_lax,
)
from qlax import algebra
from qlax.timeorder import FlowSample, OperatorPath, time_ordered_exp
from helpers import E12, E21, SL2_H, oracle_errors_reference, rand_matrix


def _problem(initial, generator, q0=0.5, order=6, grid=(1e-3, 1.0)):
    return LaxProblem(initial, OperatorPath.constant(generator), q0, order, grid)


def test_zero_generator_freezes_the_flow():
    desc = matrix_descriptor(2)
    rng = np.random.default_rng(0)
    initial = rand_matrix(rng, desc)
    prob = _problem(initial, AlgebraElement.zero(desc), grid=(1e-2, 0.1))
    flow = solve_lax(prob).flow
    for node in flow.series:
        assert node.coeffs[0] == initial
        assert all(c.is_zero for c in node.coeffs[1:])
    assert lax_residual(solve_lax(prob)).max() == 0.0


def test_central_initial_value_is_fixed():
    desc = matrix_descriptor(2)
    prob = _problem(AlgebraElement.one(desc), matrix_element(E12), grid=(1e-2, 0.2))
    flow = solve_lax(prob).flow
    for node in flow.series:
        assert np.abs(node.coeffs[0].data - np.eye(2)).max() <= 1e-14
        assert all(c.norm() <= 1e-14 for c in node.coeffs[1:])


def test_sl2_nilpotent_closed_form():
    # generator E12, initial E21: the graded flow terminates at grade 2 with
    # coefficients E21, t*diag(1,-1), -t^2*E12; evaluation at q0 gives
    # E21 + (q0 t) diag(1,-1) - (q0 t)^2 E12
    prob = preset_problem("sl2-nilpotent", q0=0.5, order=8, grid=(1e-3, 1.0))
    flow = solve_lax(prob).flow
    h = np.array(SL2_H)
    e12 = np.array(E12)
    e21 = np.array(E21)
    worst = 0.0
    for k, t in enumerate(flow.times):
        node = flow.series[k]
        worst = max(worst, np.abs(node.coeffs[0].data - e21).max())
        worst = max(worst, np.abs(node.coeffs[1].data - t * h).max())
        worst = max(worst, np.abs(node.coeffs[2].data + t * t * e12).max())
        for g in range(3, 9):
            worst = max(worst, node.coeffs[g].norm())
    assert worst <= 1e-10
    evaluated = flow.series[-1].evaluate(prob.q0)
    s = prob.q0 * flow.times[-1]
    assert np.abs(evaluated.data - (e21 + s * h - s * s * e12)).max() <= 1e-10


def test_conjugation_and_direct_integration_agree():
    for name in PRESET_NAMES:
        prob = preset_problem(name, q0=0.5, order=6, grid=(2e-3, 0.5))
        conjugated = solve_lax(prob).flow
        direct = integrate_directly(prob)
        assert flow_difference(conjugated, direct).max() <= 1e-8


def test_lax_residual_below_threshold_for_presets():
    for name in PRESET_NAMES:
        prob = preset_problem(name, q0=0.5, order=6, grid=(1e-3, 1.0))
        assert lax_residual(solve_lax(prob)).max() <= 1e-6


def test_corrupted_flow_is_detected():
    prob = preset_problem("sl2-nilpotent", q0=0.5, order=4, grid=(1e-3, 1.0))
    result = solve_lax(prob)
    doubled = result.flow.values.copy()
    doubled[:, 1] *= 2.0
    corrupted_flow = FlowSample(result.flow.times, doubled, result.flow.descriptor,
                                step=result.flow.step, order=result.flow.order,
                                q0=result.flow.q0)
    corrupted = LaxFlowResult(problem=result.problem, group=result.group,
                              flow=corrupted_flow)
    profile = lax_residual(corrupted)
    assert profile[1] >= 1e-2


def test_non_finite_flow_fails_the_residual():
    # a NaN coefficient must show in the profile, not be passed over as 0
    prob = preset_problem("sl2-nilpotent", q0=0.5, order=3, grid=(1e-2, 0.1))
    result = solve_lax(prob)
    broken_values = result.flow.values.copy()
    broken_values[4, 1] = [[np.nan, 0.0], [0.0, 0.0]]
    broken = FlowSample(result.flow.times, broken_values, result.flow.descriptor,
                        step=result.flow.step, order=result.flow.order, q0=result.flow.q0)
    profile = lax_residual(LaxFlowResult(problem=result.problem, group=result.group,
                                         flow=broken))
    assert np.isnan(profile[1])
    assert np.isnan(flow_difference(broken, result.flow)[1])


def test_flow_difference_rejects_flows_on_another_grid_or_algebra():
    fine = solve_lax(preset_problem("toda-3", order=3, grid=(1e-3, 0.5))).flow
    coarse = solve_lax(preset_problem("toda-3", order=3, grid=(2e-3, 1.0))).flow
    assert fine.values.shape == coarse.values.shape  # 501 nodes each
    with pytest.raises(ShapeMismatchError):
        flow_difference(fine, coarse)
    as_complex = FlowSample(fine.times, fine.values.astype(np.complex128),
                            matrix_descriptor(3, "complex"), step=fine.step, order=fine.order,
                            q0=fine.q0)
    with pytest.raises(ShapeMismatchError):
        flow_difference(fine, as_complex)
    # another q0 on the same grid compares; a constant path's grades ignore q0
    other_q0 = solve_lax(preset_problem("toda-3", q0=0.25, order=3, grid=(1e-3, 0.5))).flow
    assert not flow_difference(fine, other_q0).any()


def test_trace_drift_table():
    prob = preset_problem("toda-3", q0=0.5, order=6, grid=(1e-3, 1.0))
    result = solve_lax(prob)
    tables = conserved_trace_tables(result, 4)
    for k in (1, 2, 3, 4):
        assert tables[k].drift.max() <= 1e-8
    # k = 1: higher grades are traces of nested commutators, identically ~0
    assert np.abs(tables[1].values[:, 1:]).max() <= 1e-12


def test_trace_k2_sl2_literal():
    # L0 = diag(1,-1), constant rotation generator: trace(L^2) has grade-0
    # value 2 and zero drift in every grade
    prob = _problem(matrix_element(SL2_H), matrix_element([[0.0, -0.4], [0.4, 0.0]]),
                    grid=(1e-3, 0.5))
    result = solve_lax(prob)
    table = conserved_trace_tables(result, 2)[2]
    assert table.values[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert table.drift.max() <= 1e-10


def test_random_problem_trace_drift():
    rng = np.random.default_rng(21)
    desc = matrix_descriptor(4)
    prob = _problem(rand_matrix(rng, desc), rand_matrix(rng, desc) * 0.3,
                    order=6, grid=(2e-3, 0.5))
    result = solve_lax(prob)
    tables = conserved_trace_tables(result, 3)
    assert tables[3].drift.max() <= 1e-8


def test_trace_table_guards():
    prob = preset_problem("sl2-nilpotent", grid=(1e-2, 0.1))
    result = solve_lax(prob)
    with pytest.raises(DomainError):
        conserved_trace_tables(result, 5)
    with pytest.raises(DomainError):
        conserved_trace_tables(result, 0)


def test_oracle_exact_when_series_terminates():
    # nilpotent problem: truncation is exact, oracle gap is roundoff
    prob = preset_problem("sl2-nilpotent", q0=0.5, order=6, grid=(1e-3, 0.5))
    comparison = oracle_integrate(solve_lax(prob))
    assert comparison.error <= 1e-12


def test_oracle_zero_generator():
    desc = matrix_descriptor(2)
    rng = np.random.default_rng(2)
    prob = _problem(rand_matrix(rng, desc), AlgebraElement.zero(desc), grid=(1e-2, 0.2))
    comparison = oracle_integrate(solve_lax(prob))
    assert comparison.error == 0.0


def test_oracle_convergence_order():
    # truncation at N leaves an O(q0^{N+1}) gap: halving q0 divides the
    # error by about 2^{N+1}
    prob = preset_problem("toda-3", q0=0.2, order=4, grid=(1e-3, 1.0))
    comparison = oracle_integrate(solve_lax(prob))
    assert comparison.expected_order == 5
    assert 4.5 <= comparison.log2_ratio <= 5.5


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_oracle_matches_one_rk4_loop_per_scaling(field, degree):
    # both scalings step as one stack; every bit must match separate loops
    rng = np.random.default_rng(40 + 3 * degree + (field == "complex"))
    desc = matrix_descriptor(3, field)
    path = OperatorPath.polynomial([rand_matrix(rng, desc) * 0.5 for _ in range(degree + 1)])
    prob = LaxProblem(rand_matrix(rng, desc), path, 0.6, 3, (0.01, 0.37))
    result = solve_lax(prob)
    comparison = oracle_integrate(result)
    error, error_half = oracle_errors_reference(result)
    assert comparison.error == error
    assert comparison.error_half == error_half


def _exact_conjugation(group_values: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """``L g = g L0`` solved grade by grade in exact rationals, rounded once at the end."""
    def product(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
                for i in range(len(a))]

    def exact(matrix):
        return [[Fraction(value) for value in row] for row in matrix]

    l0 = exact(initial.tolist())
    nodes = []
    for node in group_values.tolist():
        g = [exact(coefficient) for coefficient in node]
        flow = []
        for n, g_n in enumerate(g):
            acc = product(g_n, l0)
            for i in range(1, n + 1):
                term = product(flow[n - i], g[i])
                acc = [[p - t for p, t in zip(row, term_row)]
                       for row, term_row in zip(acc, term)]
            flow.append(acc)
        nodes.append([[[float(value) for value in row] for row in c] for c in flow])
    return np.array(nodes)


def test_conjugation_matches_exact_rationals():
    # the grades of a long, strongly driven flow cancel heavily: a conjugation
    # by the power-sum inverse of g is off by 2.7e-10 at grade 10 here
    rng = np.random.default_rng(3)
    desc = matrix_descriptor(4)
    path = OperatorPath.polynomial([AlgebraElement(desc, rng.standard_normal((4, 4)) * 0.5)
                                    for _ in range(3)])
    initial = AlgebraElement(desc, rng.standard_normal((4, 4)))
    group = time_ordered_exp(path, 0.7, 10, (1e-2, 2.0))
    tail = FlowSample(group.times[-3:], group.values[-3:].copy(), desc, step=group.step,
                      order=group.order, q0=group.q0)
    exact = _exact_conjugation(tail.values, initial.data)
    errors = np.abs(conjugate(tail, initial).values - exact).max(axis=(0, 2, 3))
    assert np.abs(exact[:, -1]).max() >= 1.0  # the top grade is not small
    assert errors.max() <= 2e-12, errors


def test_linearity_in_the_initial_value():
    rng = np.random.default_rng(31)
    desc = matrix_descriptor(3)
    generator = rand_matrix(rng, desc) * 0.4
    path = OperatorPath.constant(generator)
    grid = (2e-3, 0.4)
    a, b = rand_matrix(rng, desc), rand_matrix(rng, desc)
    alpha, beta = 0.7, -1.3
    combined = AlgebraElement(desc, alpha * a.data + beta * b.data)
    flow_a = solve_lax(LaxProblem(a, path, 0.5, 5, grid)).flow
    flow_b = solve_lax(LaxProblem(b, path, 0.5, 5, grid)).flow
    flow_c = solve_lax(LaxProblem(combined, path, 0.5, 5, grid)).flow
    worst = 0.0
    for na, nb, nc in zip(flow_a.series, flow_b.series, flow_c.series):
        for g in range(6):
            mixed = alpha * na.coeffs[g].data + beta * nb.coeffs[g].data
            worst = max(worst, np.abs(nc.coeffs[g].data - mixed).max())
    assert worst <= 1e-12


def test_evaluation_at_zero_recovers_initial_value():
    prob = preset_problem("toda-3", q0=0.5, order=4, grid=(1e-2, 0.2))
    flow = solve_lax(prob).flow
    for node in flow.series:
        assert np.array_equal(node.evaluate(0.0).data, prob.initial.data)


def test_diffop_backend_flow():
    desc = diffop_descriptor(max_order=1, max_mode=6)
    center = desc.max_mode
    l0 = np.zeros((2, desc.width), dtype=np.complex128)
    l0[1, center] = 1.0
    l0[0, center - 1] = 0.2
    l0[0, center + 1] = 0.2
    p = np.zeros((2, desc.width), dtype=np.complex128)
    p[0, center - 1] = 0.1j
    p[0, center + 1] = -0.1j
    prob = LaxProblem(diffop_element(desc, l0), OperatorPath.constant(diffop_element(desc, p)),
                      q0=0.5, order=4, grid=(2e-3, 0.2))
    result = solve_lax(prob)
    assert lax_residual(result).max() <= 1e-6
    assert flow_difference(result.flow, integrate_directly(prob)).max() <= 1e-10
    with pytest.raises(CapabilityError):
        conserved_trace_tables(result, 2)
    with pytest.raises(CapabilityError):
        oracle_integrate(solve_lax(prob))


def test_diffop_product_count(monkeypatch):
    # L0 = D^2 + cos x, P(t) = sin(x) D + t cos(x) / 2, N = 3, five RK4 steps.
    # Each RK4 slope multiplies P into N chain entries, zero or not: the group
    # takes 5 * 4 * 3 = 60 products and the direct route, two per bracket,
    # 120.  The conjugation multiplies only pairs of nonzero coefficients: 1
    # (g_0 L0) at the unit node 0, and at each later node 4 (g * L0) and
    # 1 + 2 + 3 = 6 in the forward substitution L_n = (g L0)_n - sum L_{n-i} g_i.
    # Multiplying zero coefficients too would add 3 + 6 products at node 0,
    # where g_1..g_3 are zero.  The kernel takes a stack of pairs per call, so the
    # count is the pairs it receives.
    calls = []
    original = algebra._diffop_products

    def counted(descriptor, a, b):
        calls.extend(range(len(a)))
        return original(descriptor, a, b)

    monkeypatch.setattr(algebra, "_diffop_products", counted)
    desc = diffop_descriptor(max_order=5, max_mode=4)
    initial = diffop_element(desc, {2: {0: 1.0}, 0: {-1: 0.5, 1: 0.5}})
    path = OperatorPath.polynomial([diffop_element(desc, {1: {-1: 0.5j, 1: -0.5j}}),
                                    diffop_element(desc, {0: {-1: 0.25, 1: 0.25}})], 0.5)
    prob = LaxProblem(initial, path, q0=0.5, order=3, grid=(1e-2, 0.05))
    solve_lax(prob)
    assert len(calls) == 60 + 1 + 5 * (4 + 6)
    integrate_directly(prob)
    assert len(calls) == 231


def test_preset_names_and_validation():
    assert PRESET_NAMES == ("rotation-2", "sl2-nilpotent", "toda-3")
    with pytest.raises(DomainError):
        preset_problem("unknown")
    desc = matrix_descriptor(2)
    with pytest.raises(DomainError):
        LaxProblem(AlgebraElement.one(desc),
                   OperatorPath.constant(AlgebraElement.one(desc)),
                   q0=0.0, order=4, grid=(1e-3, 1.0))
