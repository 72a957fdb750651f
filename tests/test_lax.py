from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    oracle_errors,
    oracle_integrate,
    preset_problem,
    solve_lax,
)
from qlax import algebra, lax, series, timeorder
from qlax.algebra import unit_payload
from qlax.series import evaluated
from qlax.symmetry import (
    ad_operator,
    check_ad_exp_ad,
    equivariance_gap,
    solve_symmetry,
    symmetry_residual_full,
)
from qlax.timeorder import FlowSample, OperatorPath, time_ordered_exp
from helpers import (
    E12,
    E21,
    SL2_H,
    cauchy_on_nodes,
    conjugate_on_nodes_reference,
    count_samples,
    evaluate_on_nodes,
    lax_residual_on_nodes,
    oracle_errors_reference,
    rand_matrix,
    record_kernel_calls,
    right_divide_on_nodes,
    trace_drift_on_nodes,
)


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
    # both routes are exact, so they differ by roundoff: at most 4.7e-17 here
    for name in PRESET_NAMES:
        prob = preset_problem(name, q0=0.5, order=6, grid=(2e-3, 0.5))
        conjugated = solve_lax(prob).flow
        direct = integrate_directly(prob)
        assert flow_difference(conjugated, direct).max() <= 1e-14


def test_constant_path_closed_form_on_a_long_horizon():
    # a constant path gives L_i = ad_P^i(L0) t^i / i!; at T = 10 both routes read
    # 1.2e-12 and 7.1e-14 off it, where conjugating by an RK4 group at h = 1e-2 gives 1.4e-9
    prob = preset_problem("rotation-2", q0=0.5, order=8, grid=(1e-2, 10.0))
    generator = prob.path.coeffs[0].data.astype(np.longdouble)
    term = prob.initial.data.astype(np.longdouble)
    exact = []
    for i in range(prob.order + 1):
        exact.append(term * np.longdouble(10.0) ** i / math.factorial(i))
        term = generator @ term - term @ generator
    assert np.abs(exact[-1]).max() >= 1.0  # the top grade is not small
    for flow in (solve_lax(prob).flow, integrate_directly(prob)):
        assert flow.times[-1] == 10.0
        assert float(np.abs(flow.nodes(-1) - np.array(exact)).max()) <= 1e-11


def test_lax_residual_below_threshold_for_presets():
    for name in PRESET_NAMES:
        prob = preset_problem(name, q0=0.5, order=6, grid=(1e-3, 1.0))
        assert lax_residual(solve_lax(prob)).max() <= 1e-6


def test_corrupted_flow_is_detected():
    prob = preset_problem("sl2-nilpotent", q0=0.5, order=4, grid=(1e-3, 1.0))
    result = solve_lax(prob)
    flow = result.flow
    coefficients = [2.0 * stack if i == 1 else stack
                    for i, stack in enumerate(flow.coefficients)]
    corrupted_flow = FlowSample(flow.times, flow.descriptor, coefficients, step=flow.step,
                                q0=flow.q0)
    corrupted = LaxFlowResult(problem=result.problem, group=result.group,
                              flow=corrupted_flow)
    profile = lax_residual(corrupted)
    assert profile[1] >= 1e-2


def test_non_finite_flow_fails_the_residual():
    # a NaN coefficient must show in the profile, not be passed over as 0
    prob = preset_problem("sl2-nilpotent", q0=0.5, order=3, grid=(1e-2, 0.1))
    result = solve_lax(prob)
    coefficients = [stack.copy() for stack in result.flow.coefficients]
    coefficients[1][0, 0, 0] = np.nan
    broken = FlowSample(result.flow.times, result.flow.descriptor, coefficients,
                        step=result.flow.step, q0=result.flow.q0)
    profile = lax_residual(LaxFlowResult(problem=result.problem, group=result.group,
                                         flow=broken))
    assert np.isnan(profile[1])
    assert np.isnan(flow_difference(broken, result.flow)[1])


def test_flow_difference_rejects_flows_on_another_grid_or_algebra():
    fine = solve_lax(preset_problem("toda-3", order=3, grid=(1e-3, 0.5))).flow
    coarse = solve_lax(preset_problem("toda-3", order=3, grid=(2e-3, 1.0))).flow
    assert fine.nodes(slice(None)).shape == coarse.nodes(slice(None)).shape  # 501 nodes each
    with pytest.raises(ShapeMismatchError):
        flow_difference(fine, coarse)
    as_complex = FlowSample(fine.times, matrix_descriptor(3, "complex"),
                            [stack.astype(np.complex128) for stack in fine.coefficients],
                            step=fine.step, q0=fine.q0)
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
    assert np.abs(tables[1].coefficients[1:]).max() <= 1e-12


def test_trace_k2_sl2_literal():
    # L0 = diag(1,-1), constant rotation generator: trace(L^2) has grade-0
    # value 2, no higher grade and zero drift in every grade
    prob = _problem(matrix_element(SL2_H), matrix_element([[0.0, -0.4], [0.4, 0.0]]),
                    grid=(1e-3, 0.5))
    result = solve_lax(prob)
    table = conserved_trace_tables(result, 2)[2]
    assert table.coefficients[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert np.abs(table.coefficients[1:]).max() <= 1e-12
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
    error, _error_half = oracle_integrate(solve_lax(prob))
    assert error <= 1e-12


def test_oracle_zero_generator():
    desc = matrix_descriptor(2)
    rng = np.random.default_rng(2)
    prob = _problem(rand_matrix(rng, desc), AlgebraElement.zero(desc), grid=(1e-2, 0.2))
    # x = 0: the Dyson remainder vanishes at M = N + 1, and the reference is L0 exactly
    assert lax._reference_problem(prob).order == prob.order + 1
    error, _error_half = oracle_integrate(solve_lax(prob))
    assert error == 0.0


def test_oracle_convergence_order():
    # truncation at N leaves an O(q0^{N+1}) gap: halving q0 divides the
    # error by about 2^{N+1} = 2^5
    prob = preset_problem("toda-3", q0=0.2, order=4, grid=(1e-3, 1.0))
    error, error_half = oracle_integrate(solve_lax(prob))
    assert 4.5 <= math.log2(error / error_half) <= 5.5


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_oracle_matches_one_rk4_loop_per_scaling(field, degree):
    # the oracle's reference is exact and RK4's global error is O(h^4): halving the
    # step divides their gap by about 16 (15.2-17.1 here), unless it reaches
    # roundoff (complex degree 2 reads 9.1e-15 at h = 0.005)
    rng = np.random.default_rng(40 + 3 * degree + (field == "complex"))
    desc = matrix_descriptor(3, field)
    path = OperatorPath.polynomial([rand_matrix(rng, desc) * 0.5 for _ in range(degree + 1)])
    initial = rand_matrix(rng, desc)
    gaps = []
    for step in (0.01, 0.005):
        result = solve_lax(LaxProblem(initial, path, 0.6, 3, (step, 0.37)))
        gaps.append(max(abs(exact - rk4) for exact, rk4
                        in zip(oracle_integrate(result), oracle_errors_reference(result))))
    assert gaps[1] < 1e-14 or gaps[0] >= 12.0 * gaps[1], gaps


def test_oracle_errors_ignores_the_path_name_and_q0():
    # a path rebuilt from its coefficients, or carrying another name and q0, is the
    # same path: the oracle reads only the problem's q0
    prob = preset_problem("toda-3", q0=0.2, order=3, grid=(1e-2, 0.1))
    paths = [OperatorPath.constant(prob.path.coeffs[0]),
             OperatorPath.constant(prob.path.coeffs[0], q0=0.7, name="other")]
    assert all(path == prob.path for path in paths)
    errors = oracle_integrate(solve_lax(prob))
    for path in paths:
        assert oracle_integrate(solve_lax(replace(prob, path=path))) == errors
    assert errors == pytest.approx((7.2889e-10, 4.5555e-11), rel=1e-4)


def test_oracle_matches_the_closed_form_rotation():
    # rotation-2 drives L0 = diag(1, -1) by P = 0.4 J, so the flow is exp(th J) L0
    # exp(-th J) with th = 0.4 q0 t: [[cos 2th, sin 2th], [sin 2th, -cos 2th]].
    # At T = 10 the truncation error is about 0.96; the exact series reference is
    # 3.3e-16 off the closed form, an RK4 reference at h = 1e-3 4.8e-15
    prob = preset_problem("rotation-2", q0=0.5, grid=(1e-3, 10.0))
    result = solve_lax(prob)
    flow = result.flow
    angle = 0.8 * prob.q0 * flow.times
    cos, sin = np.cos(angle), np.sin(angle)
    exact = np.stack([np.stack([cos, sin], axis=-1), np.stack([sin, -cos], axis=-1)], axis=-2)
    closed = np.sqrt(((evaluate_on_nodes(flow.nodes(slice(None)), prob.q0) - exact) ** 2).sum(
        axis=(1, 2))).max()
    assert abs(oracle_errors(result, [prob.q0])[0] - closed) <= 1e-15


def test_oracle_errors_rejects_scalings_outside_the_solve():
    # one solve serves every scaling up to its own q0, and no other
    result = solve_lax(preset_problem("toda-3", q0=0.5, order=3, grid=(1e-2, 0.1)))
    for scalings in ([0.0], [0.25, -0.25], [0.5, 0.75], [math.nan]):
        with pytest.raises(DomainError, match="oracle scalings"):
            oracle_errors(result, scalings)
    assert oracle_errors(result, [0.25, 0.5])[1] == oracle_integrate(result)[0]


def test_oracle_reference_order_drops_the_remainder_below_roundoff():
    # toda-3 at q0 = 0.5, T = 1: x = ||P||_F = 0.8, and 0.8^17/17! = 6.3e-17 is the
    # first term past N = 8 under 2^-53 = 1.1e-16 (0.8^16/16! = 1.3e-15)
    prob = preset_problem("toda-3")
    assert lax._reference_problem(prob).order == 16
    assert lax._reference_problem(replace(prob, order=20)).order == 21


def _exact_flow(path: OperatorPath, q0: float, initial: AlgebraElement, order: int,
                times: np.ndarray) -> np.ndarray:
    """The flow's grades at ``times`` in exact rationals, rounded once at the end.

    ``L_i = int_0^t [P(q0 s), L_(i-1)(s)] ds`` on the polynomial coefficients in
    ``t``, evaluated by Horner's rule.  The path, ``q0`` and ``times`` are binary
    floats and the recurrence divides only by integers, so nothing is rounded
    before the last step.
    """
    exact = np.vectorize(Fraction, otypes=[object])
    scaled = [exact(c.data) * Fraction(q0) ** e for e, c in enumerate(path.coeffs)]
    grades = [[exact(initial.data)]]  # coefficients of t^0, t^1, ...
    for _ in range(order):
        below = grades[-1]
        grade = [np.full(initial.data.shape, Fraction(0), dtype=object)
                 for _ in range(len(below) + len(scaled))]
        for e, p in enumerate(scaled):
            for j, c in enumerate(below):
                grade[e + j + 1] = grade[e + j + 1] + (p @ c - c @ p) / (e + j + 1)
        grades.append(grade)
    nodes = []
    for t in map(Fraction, times):
        node = []
        for grade in grades:
            acc = grade[-1]
            for c in grade[-2::-1]:
                acc = c + t * acc
            node.append(acc)
        nodes.append(node)
    return np.array(nodes, dtype=object).astype(float)


def test_conjugation_matches_exact_rationals():
    # the grades of a long, strongly driven flow cancel heavily: a conjugation
    # by the power-sum inverse of g is off by 2.7e-10 at grade 10 here.  Against
    # the exact flow of the path, the route reads 9.5e-13, and the node-by-node
    # conjugation it replaced read 1.66e-12
    rng = np.random.default_rng(3)
    desc = matrix_descriptor(4)
    path = OperatorPath.polynomial([AlgebraElement(desc, rng.standard_normal((4, 4)) * 0.5)
                                    for _ in range(3)])
    initial = AlgebraElement(desc, rng.standard_normal((4, 4)))
    flow = conjugate(time_ordered_exp(path, 0.7, 10, (1e-2, 2.0)), initial)
    exact = _exact_flow(path, 0.7, initial, 10, flow.times[-3:])
    errors = np.abs(flow.nodes(slice(-3, None)) - exact).max(axis=(0, 2, 3))
    assert np.abs(exact[:, -1]).max() >= 1.0  # the top grade is not small
    assert errors.max() <= 2e-12, errors


def test_every_sample_keeps_its_polynomials():
    prob = preset_problem("toda-3", order=4, grid=(1e-2, 0.1))
    result = solve_lax(prob)
    group = result.group
    for sample in (group, result.flow, integrate_directly(prob)):
        assert len(sample.coefficients) == prob.order + 1
        assert not any(stack.flags.writeable for stack in sample.coefficients)
    doubled = FlowSample(group.times, group.descriptor,
                         [2 * stack for stack in group.coefficients], step=group.step,
                         q0=group.q0)
    with pytest.raises(DomainError, match="grade-0 coefficient must equal the unit"):
        conjugate(doubled, prob.initial)


def test_sample_times_are_read_only():
    # the flow shares the group's times, so a write to either would change both
    result = solve_lax(preset_problem("toda-3", order=2, grid=(1e-2, 0.1)))
    for sample in (result.group, result.flow):
        with pytest.raises(ValueError, match="read-only"):
            sample.times[1] = 7.0
    assert result.flow.times[1] == 0.01


def _lazy_problem(backend: str) -> LaxProblem:
    """A degree-1 path on 21 nodes: a real or complex 3x3 at N = 4, or a diffop at N = 2
    whose window J = 4, M = 3 holds every product."""
    if backend == "diffop":
        desc = diffop_descriptor(4, 3)
        initial = diffop_element(desc, {2: {0: 1.0}, 0: {-1: 0.5, 1: 0.5}})
        coeffs = [diffop_element(desc, {1: {-1: 0.5j, 1: -0.5j}}),
                  diffop_element(desc, {0: {-1: 0.25, 1: 0.25}})]
        order = 2
    else:
        rng = np.random.default_rng(5)
        desc = matrix_descriptor(3, backend)
        initial, coeffs = rand_matrix(rng, desc), [rand_matrix(rng, desc) for _ in range(2)]
        order = 4
    return LaxProblem(initial, OperatorPath.polynomial(coeffs), 0.5, order, (0.05, 1.0))


@pytest.mark.parametrize("backend", ["real", "complex", "diffop"])
def test_library_samples_are_sampled_once_on_first_read(monkeypatch, backend):
    problem = _lazy_problem(backend)
    sampled = count_samples(monkeypatch)
    result = solve_lax(problem)
    samples = (result.group, result.flow, integrate_directly(problem))
    assert [len(sample) for sample in samples] == [21] * 3
    assert sampled == []  # neither the solve nor len() samples a node
    for count, sample in enumerate(samples, 1):
        values = sample.nodes(slice(None))
        assert len(sampled) == count
        assert (values.dtype, values.shape) == (
            sample.descriptor.dtype, (21, problem.order + 1, *sample.descriptor.shape))
    # a sample is its polynomials: a misshapen or missing grade 0 fails at construction,
    # not on read
    flow = result.flow
    with pytest.raises(ShapeMismatchError, match="is not a stack of"):
        FlowSample(flow.times, flow.descriptor, [stack[..., :1] for stack in flow.coefficients],
                   step=flow.step, q0=flow.q0)
    with pytest.raises(DomainError, match="needs at least grade 0's coefficients"):
        FlowSample(flow.times, flow.descriptor, (), step=flow.step, q0=flow.q0)
    assert len(sampled) == 3


@pytest.mark.parametrize("backend", ["real", "complex", "diffop"])
def test_no_check_samples_a_node(monkeypatch, backend):
    # every check is an identity between polynomials in s = t/T, taken on their
    # coefficients, so none samples a node of a flow or a group; the symmetry checks,
    # the trace tables and the oracle need the matrix backend
    problem = _lazy_problem(backend)
    result, direct = solve_lax(problem), integrate_directly(problem)
    sampled = count_samples(monkeypatch)
    lax_residual(result)
    flow_difference(result.flow, direct)
    timeorder.left_log_derivative_residual(result.group, problem.path, problem.q0)
    if backend != "diffop":
        conserved_trace_tables(result, 4)
        oracle_errors(result, (problem.q0, problem.q0 / 2))
        sym = solve_symmetry(ad_operator(problem.initial), problem.path, problem.q0,
                             problem.order, problem.grid)
        symmetry_residual_full(sym, result)
        check_ad_exp_ad(result.group, sym.group)
        equivariance_gap(sym, result)
    assert sampled == []
    result.flow.nodes(-1)  # the count sees a node read
    assert [nodes.tolist() for _, nodes in sampled] == [20]


@st.composite
def _lax_problems(draw):
    """A real or complex 3x3, or a diffop, problem: a path of degree 0-3, N in 1..6 and
    2 to 40 nodes.  The diffop path and initial value have orders <= 1 and 2 and modes
    |m| <= 1, so the window J = N + 2, M = N + 1 holds every product of the routes."""
    backend = draw(st.sampled_from(("real", "complex", "diffop")))
    degree, order = draw(st.integers(0, 3)), draw(st.integers(1, 6))
    steps = draw(st.integers(1, 39))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if backend == "diffop":
        desc = diffop_descriptor(order + 2, order + 1)

        def element(rows):
            data = np.zeros(desc.shape, dtype=np.complex128)
            data[:rows, desc.max_mode - 1:desc.max_mode + 2] = (
                rng.uniform(-0.5, 0.5, (rows, 3)) + 1j * rng.uniform(-0.5, 0.5, (rows, 3)))
            return AlgebraElement(desc, data)

        initial, coeffs = element(3), [element(2) for _ in range(degree + 1)]
    else:
        desc = matrix_descriptor(3, backend)
        initial, coeffs = (rand_matrix(rng, desc),
                           [rand_matrix(rng, desc) * 0.5 for _ in range(degree + 1)])
    grid = (1.0 / steps, 1.0)
    return LaxProblem(initial, OperatorPath.polynomial(coeffs), 0.5, order, grid)


_SPECIAL_COEFFICIENTS = (np.inf, -np.inf, np.nan, -0.0, -1.0)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_lax_problems(), st.data())
def test_any_nodes_are_sampled_with_the_bits_of_the_whole_sample(problem, data):
    # FlowSample.nodes samples only the nodes it is asked for, with the bits those nodes
    # have in the whole sample; node 0's grades above 0 are +0.0 even when a coefficient
    # is infinite, NaN or negative.
    flow = solve_lax(problem).flow
    grades = [np.array(stack) for stack in flow.coefficients]
    if data.draw(st.booleans()):
        grade = data.draw(st.integers(1, flow.order))
        entry = data.draw(st.integers(0, grades[grade].size - 1))
        grades[grade].reshape(-1)[entry] = data.draw(st.sampled_from(_SPECIAL_COEFFICIENTS))
    sample = FlowSample(flow.times, flow.descriptor, grades, step=flow.step, q0=flow.q0)
    count = len(sample)
    block_bytes = data.draw(st.sampled_from((1, 5000, 50000, algebra.BLOCK_BYTES)))
    with mock.patch.object(algebra, "BLOCK_BYTES", block_bytes):
        blocks = sample.node_blocks()
    indices = [0, count - 1, -1, -count, data.draw(st.integers(-count, count - 1)),
               data.draw(st.slices(count)), *blocks]
    picked = [sample.nodes(index) for index in indices]
    values = sample.nodes(slice(None))
    for index, nodes in zip(indices, picked):
        assert (nodes.dtype, nodes.shape) == (values.dtype, values[index].shape)
        assert nodes.tobytes() == values[index].tobytes()
    assert not values[0, 1:].view(np.uint8).any()  # +0.0, sign bit clear
    assert values[0, 0].tobytes() == grades[0][0].tobytes()


@pytest.mark.parametrize("backend", ["real", "diffop"])
def test_series_nodes_sample_only_the_nodes_read(monkeypatch, backend):
    flow = solve_lax(_lazy_problem(backend)).flow
    sampled = count_samples(monkeypatch)
    last, head, every = flow.series[-1], flow.series[:3], list(flow.series)
    assert [nodes.tolist() for _, nodes in sampled] == [20, [0, 1, 2], list(range(21))]
    values = flow.nodes(slice(None))
    assert last.values.tobytes() == values[-1].tobytes()
    assert [node.values.tobytes() for node in (*head, *every)] == [
        node.tobytes() for node in (*values[:3], *values)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_lax_problems())
def test_coefficient_conjugation_matches_the_node_route_and_the_direct_route(problem):
    # all three routes are exact, so they differ by roundoff only
    result = solve_lax(problem)
    for reference in (conjugate_on_nodes_reference(result.group, problem.initial),
                      integrate_directly(problem).nodes(slice(None))):
        scale = np.abs(reference).max()
        assert np.abs(result.flow.nodes(slice(None)) - reference).max() <= 1e-13 * scale


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_lax_problems(), st.floats(0.01, 1.0))
def test_a_smaller_scaling_is_the_same_series_at_a_shorter_time(problem, ratio):
    # q enters grade i's coefficient of s^(i + j) only as q^j, so the solve at q = r q0,
    # evaluated at q on its nodes s, is the solve at q0 evaluated at q0 on r s
    coefficients = solve_lax(problem).flow.coefficients
    q = ratio * problem.q0
    fresh = solve_lax(replace(problem, q0=q)).flow
    s = fresh.times / fresh.times[-1]
    gap = (evaluated(coefficients, problem.q0, ratio * s)
           - evaluate_on_nodes(fresh.nodes(slice(None)), q))
    scale = max(np.abs(stack).max() for stack in coefficients)
    assert np.abs(gap).max() <= 1e-13 * scale, np.abs(gap).max() / scale


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_lax_problems())
def test_the_exact_group_times_its_inverse_is_the_unit(problem):
    # g g^(-1) reads 2.1e-15 of g's largest entry at worst over these draws
    group = time_ordered_exp(problem.path, problem.q0, problem.order, problem.grid)
    descriptor, values = group.descriptor, group.nodes(slice(None))
    unit = np.zeros_like(values)
    unit[:, 0] = unit_payload(descriptor)
    product = cauchy_on_nodes(descriptor, values, right_divide_on_nodes(descriptor, unit, values))
    gap = np.abs(product - unit).reshape(len(group), -1).max(axis=1)
    scale = np.abs(values).reshape(len(group), -1).max(axis=1)
    assert (gap <= 1e-13 * scale).all(), (gap / scale).max()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_lax_problems())
def test_the_residuals_are_roundoff(problem):
    # both residuals are taken on exact polynomials, so they read roundoff of the
    # sample's largest coefficient: at worst over these draws 2.5e-16 of it for the
    # group, and 2.7e-14 for a diffop flow, whose products scale modes by up to N + 1
    result = solve_lax(problem)
    for sample, residual in ((result.flow, lax_residual(result)),
                             (result.group, timeorder.left_log_derivative_residual(
                                 result.group, problem.path, problem.q0))):
        scale = max(np.abs(stack).max() for stack in sample.coefficients)
        assert residual.max() <= 1e-13 * scale, residual.max() / scale


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_lax_problems(), st.none() | st.integers(0, 6))
def test_the_coefficient_checks_bound_the_node_checks(problem, corrupted):
    # each check sums its identity's coefficient norms in s = t/T, which bounds the
    # identity's gap on all of [0, T]; on the nodes it may read above that sum only by
    # roundoff (toda-3's trace_drift_k4 reads 1.53e-16 on the nodes against a 5.55e-17
    # sum).  A draw with a ``corrupted`` grade scales its flow coefficients by 1 + 1e-8.
    result = solve_lax(problem)
    flow = result.flow
    if corrupted is not None:
        grade = min(corrupted, problem.order)
        grades = [stack * (1.0 + 1e-8) if i == grade else stack
                  for i, stack in enumerate(flow.coefficients)]
        flow = FlowSample(flow.times, flow.descriptor, grades, step=flow.step, q0=flow.q0)
        result = LaxFlowResult(problem=problem, group=result.group, flow=flow)
    scale = max(np.abs(stack).max() for stack in flow.coefficients)
    checks = [(lax_residual(result), lax_residual_on_nodes(result), scale)]
    if flow.descriptor.backend == algebra.MATRIX:
        nodes = trace_drift_on_nodes(flow, 4)
        checks += [(table.drift, nodes[k], scale ** k)
                   for k, table in conserved_trace_tables(result, 4).items()]
    for bound, on_nodes, check_scale in checks:
        assert (on_nodes <= bound + 1e-13 * check_scale).all()
        if corrupted is None:
            assert bound.max() <= 1e-13 * check_scale
    if corrupted is not None:  # the residual sees the corruption
        assert checks[0][0].max() > 1e-13 * scale


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
    # both routes are exact: they differ by 1.4e-18 here
    assert flow_difference(result.flow, integrate_directly(prob)).max() <= 1e-14
    with pytest.raises(CapabilityError):
        conserved_trace_tables(result, 2)
    with pytest.raises(CapabilityError):
        oracle_integrate(solve_lax(prob))


def test_diffop_product_count(monkeypatch):
    # L0 = D^2 + cos x, P(t) = sin(x) D + t cos(x) / 2, N = 3.  P has degree 1, so
    # grade i - 1 of the group holds the coefficients of t^(i-1) up to t^(2(i-1)),
    # i of them, and grade i multiplies both of P's coefficients into each: 2 + 4 + 6
    # = 12 products in 3 calls, one per grade.  The direct route takes two products
    # per bracket, 24 in 6 calls.  The conjugation works on the coefficients, not on
    # the nodes: g L0 is one call over g's 1 + 2 + 3 + 4 = 10 coefficients, and each
    # finished grade k of L = (g L0) g^(-1) one call, L_k's k + 1 coefficients by the 2 +
    # .. + (4 - k) of g_1 .. g_(3-k): [9], [10] and [6], as none of the coefficients is
    # zero.  A residual check takes every grade's products in one call, both of P's
    # coefficients against the 1 + 2 + 3 = 6 coefficients of grades 0..2: 12 pairs, in
    # one call for g' = q P g and in a bracket's two for the flow.  A call's pairs are
    # its factors' broadcast leading axes, and they do not depend on the number of nodes.
    calls = record_kernel_calls(monkeypatch)
    desc = diffop_descriptor(max_order=5, max_mode=4)
    initial = diffop_element(desc, {2: {0: 1.0}, 0: {-1: 0.5, 1: 0.5}})
    path = OperatorPath.polynomial([diffop_element(desc, {1: {-1: 0.5j, 1: -0.5j}}),
                                    diffop_element(desc, {0: {-1: 0.25, 1: 0.25}})], 0.5)
    for horizon in (0.05, 0.59):  # 6 and 60 nodes
        calls.clear()
        prob = LaxProblem(initial, path, q0=0.5, order=3, grid=(1e-2, horizon))
        result = solve_lax(prob)
        integrate_directly(prob)
        lax_residual(result)
        timeorder.left_log_derivative_residual(result.group, path, 0.5)
        assert [call.pairs for call in calls] == [2, 4, 6, 10, 9, 10, 6,
                                                  2, 2, 4, 4, 6, 6, 12, 12, 12]


def test_a_toda_conjugation_makes_one_product_call_per_finished_grade(monkeypatch):
    # toda-3's constant path gives each grade of g one coefficient: g L0 is one call
    # over g's 9, and each finished grade k of L one call, L_k by g_1 .. g_(8-k)
    pairs = []

    def recorded(descriptor, a, b):
        pairs.append(math.prod(np.broadcast_shapes(a.shape, b.shape)[:-2]))
        return algebra.stacked_product(descriptor, a, b)

    problem = preset_problem("toda-3")
    group = time_ordered_exp(problem.path, problem.q0, problem.order, problem.grid)
    for module in (lax, series):
        monkeypatch.setattr(module, "stacked_product", recorded)
    conjugate(group, problem.initial)
    assert pairs == [9, 8, 7, 6, 5, 4, 3, 2, 1]


def test_the_diffop_flow_residual_is_one_kernel_block(monkeypatch):
    # the benchmark's diffop flow (N = 6, J = 8, M = 7): the residual's bracket is two
    # kernel calls of P's 2 coefficients against the 21 of grades 0..5, and each is one
    # tile, since a tile counts the temporaries live at once (algebra._leibniz_bytes)
    desc = diffop_descriptor(8, 7)
    initial = diffop_element(desc, {2: {0: 1.0}, 0: {-1: 0.5, 1: 0.5}})
    path = OperatorPath.polynomial([diffop_element(desc, {1: {-1: 0.5j, 1: -0.5j}}),
                                    diffop_element(desc, {0: {-1: 0.25, 1: 0.25}})])
    result = solve_lax(LaxProblem(initial, path, 0.5, 6, (1e-2, 1.0)))
    calls = record_kernel_calls(monkeypatch)
    blocks = []
    block = algebra._leibniz_block

    def counted(*args):
        blocks.append(args[0].shape)
        return block(*args)

    monkeypatch.setattr(algebra, "_leibniz_block", counted)
    lax_residual(result)
    assert [(call.a.shape[:-2], call.b.shape[:-2]) for call in calls] == [
        ((2, 1), (1, 21)), ((1, 21), (2, 1))]
    assert len(blocks) == len(calls)


_CAP_MESSAGE = "polynomials, product stacks and node stacks exceed"


def test_flow_size_cap():
    # a 1x1 real solve of order N >= 32768 on one step counts 8-byte payloads of one
    # entry: the group's and the flow's polynomials, 2 (N + 1); the conjugation's
    # largest call, L_0 by g_1 .. g_N, N pairs of 8 + 8 + 64 bytes beside 4 (N + 1)
    # payloads (a residual check's 3 N + N + 1 payloads are fewer); one block of sampled
    # nodes, here one node of N + 1 payloads and a table of N + 2 floats; one block of
    # evaluated nodes, here both, of three payloads and three floats, 3 * 8 + 24 bytes
    # each; and 2 nodes' times and their list, 40 bytes each: 16 (N + 1) + 80 N + 32 (N
    # + 1) + 16 N + 24 + 96 + 80 = 144 N + 248 bytes in all
    one = AlgebraElement.one(matrix_descriptor(1))
    path = OperatorPath.constant(one)
    largest = (algebra.MAX_FLOW_BYTES - 248) // 144
    assert LaxProblem(one, path, q0=0.5, order=largest, grid=(1.0, 1.0)).order == largest
    with pytest.raises(DomainError, match=_CAP_MESSAGE):
        LaxProblem(one, path, q0=0.5, order=largest + 1, grid=(1.0, 1.0))
    with pytest.raises(DomainError, match=_CAP_MESSAGE):
        LaxProblem(one, path, q0=0.5, order=4, grid=(1e-9, 1.0))
    # a degree-8 path's largest division call has about 128 N^3 / 27 pairs: at this N
    # they would take 3e21 bytes, and the check runs before any of it exists
    octic = OperatorPath.polynomial([one] * 9)
    order = 2_000_000
    assert 2 * (order + 1) * 8 <= algebra.MAX_FLOW_BYTES // 32
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=_CAP_MESSAGE):
            LaxProblem(one, octic, q0=0.5, order=order, grid=(1.0, 1.0))
        assert tracemalloc.get_traced_memory()[1] <= 1 << 20
    finally:
        tracemalloc.stop()


def _traced_peak(run) -> int:
    """The ``tracemalloc`` peak of ``run()``, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_solve_just_under_the_size_cap_holds_at_most_the_cap(monkeypatch):
    # at a cap of 1.5 MiB (1,572,864 bytes), a degree-1 diffop path on 101 nodes in the J
    # = 8, M = 7 window (2,160-byte payloads of 135 entries) counts 1,683,680 bytes at N
    # = 6 and 1,548,880 at N = 5: the polynomials, 2 * 21 payloads (90,720); the
    # conjugation's largest call, L_1's 2 coefficients by g_1 .. g_4's 14, 28 pairs of
    # 2,160 + 8 * 135 + 64 bytes (92,512), beside 4 * 21 payloads (181,440), more than a
    # residual check's 3 * 2 * 15 + 21 payloads (239,760); a kernel tile (262,144); a
    # block of 20 sampled nodes of 6 payloads and 12 floats (261,120); one block of all
    # 101 evaluated nodes, of three payloads and three floats (656,904); and 101 nodes'
    # times and their list, 40 bytes each (4,040)
    monkeypatch.setattr(timeorder, "MAX_FLOW_BYTES", 3 << 19)
    desc = diffop_descriptor(8, 7)
    initial = diffop_element(desc, {2: {0: 1.0}, 0: {-1: 0.5, 1: 0.5}})
    path = OperatorPath.polynomial([diffop_element(desc, {1: {-1: 0.5j, 1: -0.5j}}),
                                    diffop_element(desc, {0: {-1: 0.25, 1: 0.25}})])
    problem = LaxProblem(initial, path, 0.5, 5, (1e-2, 1.0))

    def walk():  # the solve, then every node a block at a time
        flow = solve_lax(problem).flow
        for block in flow.node_blocks():
            flow.nodes(block)

    # toda-3's oracle holds its order-16 reference, the largest problem it builds, and
    # evaluates its nodes a block at a time.  On K >= 3,640 nodes the reference counts
    # its polynomials (2,448 bytes); its largest division call, L_0 by g_1 .. g_16, 16
    # pairs of 72 + 8 * 9 + 64 bytes beside 4 * 17 payloads (8,224); a block of 214
    # sampled nodes (292,752); a block of 3,640 evaluated nodes of three 72-byte payloads
    # and three floats (873,600); and K nodes' times and their list, 40 bytes each:
    # 1,177,024 + 40 K, and K = 9,896 is the most nodes the cap admits (1,572,864 bytes)
    toda = preset_problem("toda-3", grid=(1 / 9895, 1.0))
    reference = lax._reference_problem(toda)
    assert reference.order == 16
    with pytest.raises(DomainError, match=_CAP_MESSAGE):
        replace(reference, grid=(1 / 9896, 1.0))
    for run in (lambda: solve_lax(problem), lambda: integrate_directly(problem), walk,
                lambda: oracle_errors(solve_lax(toda), (toda.q0, toda.q0 / 2))):
        assert _traced_peak(run) <= timeorder.MAX_FLOW_BYTES, run
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=_CAP_MESSAGE):
            replace(problem, order=6)
        assert tracemalloc.get_traced_memory()[1] <= 1 << 16
    finally:
        tracemalloc.stop()


def test_preset_names_and_validation():
    assert PRESET_NAMES == ("rotation-2", "sl2-nilpotent", "toda-3")
    with pytest.raises(DomainError):
        preset_problem("unknown")
    desc = matrix_descriptor(2)
    with pytest.raises(DomainError):
        LaxProblem(AlgebraElement.one(desc),
                   OperatorPath.constant(AlgebraElement.one(desc)),
                   q0=0.0, order=4, grid=(1e-3, 1.0))
