"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from qlax import AlgebraElement, GradedSeries, diffop_element, matrix_descriptor
from qlax.algebra import element_norms
from qlax.lax import LaxProblem, solve_lax
from qlax.series import evaluate_values
from qlax.timeorder import _expand_grid

E12 = [[0.0, 1.0], [0.0, 0.0]]
E21 = [[0.0, 0.0], [1.0, 0.0]]
SL2_H = [[1.0, 0.0], [0.0, -1.0]]


def rand_matrix(rng: np.random.Generator, descriptor) -> AlgebraElement:
    data = rng.standard_normal((descriptor.n, descriptor.n))
    if descriptor.dtype == np.complex128:
        data = data + 1j * rng.standard_normal((descriptor.n, descriptor.n))
    return AlgebraElement(descriptor, data.astype(descriptor.dtype))


def rand_diffop(rng: np.random.Generator, descriptor, used_order: int,
                used_mode: int) -> AlgebraElement:
    """Random operator supported on orders <= used_order, modes |m| <= used_mode."""
    data = np.zeros((descriptor.max_order + 1, descriptor.width), dtype=np.complex128)
    center = descriptor.max_mode
    for j in range(used_order + 1):
        block = rng.standard_normal(2 * used_mode + 1) \
            + 1j * rng.standard_normal(2 * used_mode + 1)
        data[j, center - used_mode: center + used_mode + 1] = block
    return diffop_element(descriptor, data)


def rand_series(rng: np.random.Generator, descriptor, order: int,
                from_grade: int = 0) -> GradedSeries:
    coeffs = [AlgebraElement.zero(descriptor)] * from_grade
    coeffs += [rand_matrix(rng, descriptor) for _ in range(order + 1 - from_grade)]
    return GradedSeries(coeffs)


def series_gap(a: GradedSeries, b: GradedSeries) -> float:
    return max((x - y).norm() for x, y in zip(a.coeffs, b.coeffs))


def rel_gap(a: GradedSeries, b: GradedSeries) -> float:
    """Per-grade norm gap relative to the larger of 1 and the reference norm."""
    worst = 0.0
    for x, y in zip(a.coeffs, b.coeffs):
        scale = max(1.0, y.norm())
        worst = max(worst, (x - y).norm() / scale)
    return worst


def apply_to_modes(element: AlgebraElement, coeffs: np.ndarray) -> np.ndarray:
    """Apply ``sum_j a_j(x) D^j`` to the trig polynomial ``sum_m c_m e^{imx}``.

    ``coeffs`` has length ``2K + 1`` indexed by mode ``m + K``; the result uses
    the same indexing and must fit, which the caller guarantees by choosing K.
    """
    half = (coeffs.size - 1) // 2
    modes = np.arange(-half, half + 1)
    cap = element.descriptor.max_mode
    out = np.zeros(coeffs.size, dtype=np.complex128)
    for j in range(element.descriptor.max_order + 1):
        row = element.data[j]
        if not row.any():
            continue
        derived = coeffs * (1j * modes) ** j
        full = np.convolve(row, derived)  # modes -(cap+half) .. cap+half
        spill = max(np.abs(full[:cap]).max(initial=0.0),
                    np.abs(full[cap + coeffs.size:]).max(initial=0.0))
        assert spill < 1e-12, "test buffer too narrow for this product"
        out += full[cap: cap + coeffs.size]
    return out


def leibniz_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Leibniz product of two ``(J+1, 2M+1)`` diffop payloads in extended precision.

    Returns the uncapped ``(2J+1, 4M+1)`` product as ``np.clongdouble``:
    orders ``0..2J`` by modes ``-2M..2M``, one ``np.convolve`` per term.
    """
    orders, width = a.shape
    half = (width - 1) // 2
    factor = 1j * np.arange(-half, half + 1).astype(np.clongdouble)
    out = np.zeros((2 * orders - 1, 2 * width - 1), dtype=np.clongdouble)
    for j in range(orders):
        row = a[j].astype(np.clongdouble)
        for k in range(orders):
            derived = b[k].astype(np.clongdouble)
            for d in range(j + 1):
                out[j + k - d] += math.comb(j, d) * np.convolve(row, derived)
                derived = derived * factor
    return out


def integrate_chain_reference(produce, path, q0: float, base: AlgebraElement, order: int,
                              grid) -> tuple[np.ndarray, np.ndarray]:
    """``timeorder._integrate_chain`` one RK4 step at a time, all grades as one stack.

    Each slope multiplies the path sample into ``(base, X_1, ..., X_{N-1})``;
    the chain must give the same bits on matrices.
    """
    step, horizon, steps = _expand_grid(grid)
    descriptor = base.descriptor
    times = np.linspace(0.0, horizon, steps + 1)
    half = 0.5 * step
    sixth = step / 6.0
    start, middle, end = (path.sample(q0 * (times[:-1] + shift)) for shift in (0.0, half, step))
    head = base.data[None]

    def slopes(p, stack):
        return produce(p, np.concatenate((head, stack[:-1])))

    values = np.zeros((steps + 1, order + 1, *descriptor.shape), dtype=descriptor.dtype)
    values[:, 0] = base.data
    stack = values[0, 1:]
    for k in range(steps):
        k1 = slopes(start[k], stack)
        k2 = slopes(middle[k], stack + half * k1)
        k3 = slopes(middle[k], stack + half * k2)
        k4 = slopes(end[k], stack + step * k3)
        stack = stack + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[k + 1, 1:] = stack
    return times, values


def oracle_errors_reference(result) -> tuple[float, float]:
    """``(error, error_half)`` of the evaluation oracle, one RK4 loop per scaling.

    Each loop evaluates the scaled path element by element at a time advanced
    by ``t += step``; ``lax.oracle_integrate`` must give the same bits.
    """
    problem = result.problem
    step = float(problem.grid[0])
    steps = round(float(problem.grid[1]) / step)
    half = 0.5 * step
    sixth = step / 6.0

    def bracket(a, y):
        return a @ y - y @ a

    def rk4(q0):
        scaled = problem.path.scaled(q0)
        y = problem.initial.data
        nodes = [y]
        t = 0.0
        for _ in range(steps):
            k1 = bracket(scaled.at(t).data, y)
            k2 = bracket(scaled.at(t + half).data, y + half * k1)
            k3 = bracket(scaled.at(t + half).data, y + half * k2)
            k4 = bracket(scaled.at(t + step).data, y + step * k3)
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            nodes.append(y)
            t += step
        return np.stack(nodes)

    def error(flow, q0):
        gap = evaluate_values(flow.descriptor, flow.values, q0) - rk4(q0)
        return float(element_norms(flow.descriptor, gap).max(initial=0.0))

    half_q0 = problem.q0 / 2.0
    halved = solve_lax(LaxProblem(problem.initial, problem.path, half_q0, problem.order,
                                  problem.grid))
    return error(result.flow, problem.q0), error(halved.flow, half_q0)
