"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import csv
import io
import math
import sys
from typing import NamedTuple

import numpy as np

from qlax import (AlgebraElement, GradedSeries, algebra, diffop_element, matrix_descriptor,
                  timeorder)
from qlax.algebra import element_norms, stacked_commutator, stacked_product
from qlax.lax import LaxProblem, solve_lax
from qlax.timeorder import _expand_grid, _residual_polynomials

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
    """Classical RK4 for the chain ``X_i' = produce(P(q0 t), X_{i-1})``, one step at a
    time, all grades as one stack.

    Each slope multiplies the path sample into ``(base, X_1, ..., X_{N-1})``.  Its
    global error is O(h^4), against which the exact recurrence is checked.
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


def evaluate_on_nodes(values: np.ndarray, q0) -> np.ndarray:
    """``sum_n q0^n values[:, n]``: a sampled series evaluated at ``q0`` on every node."""
    return np.tensordot(values, q0 ** np.arange(values.shape[1]), axes=([1], [0]))


def oracle_errors_reference(result) -> tuple[float, float]:
    """``(error, error_half)`` of the evaluation oracle against plain RK4 at the
    problem's own step, one loop per scaling.

    Each loop evaluates the scaled path ``q0 P(q0 t)`` element by element at a time
    advanced by ``t += step``.  RK4's global error is O(h^4), so its gap to
    ``lax.oracle_integrate``, whose reference is exact, falls like ``h^4``.
    """
    problem = result.problem
    step = float(problem.grid[0])
    steps = round(float(problem.grid[1]) / step)
    half = 0.5 * step
    sixth = step / 6.0

    def bracket(a, y):
        return a @ y - y @ a

    def rk4(q0):
        def scaled(t):
            return q0 * problem.path.at(q0 * t).data

        y = problem.initial.data
        nodes = [y]
        t = 0.0
        for _ in range(steps):
            k1 = bracket(scaled(t), y)
            k2 = bracket(scaled(t + half), y + half * k1)
            k3 = bracket(scaled(t + half), y + half * k2)
            k4 = bracket(scaled(t + step), y + step * k3)
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            nodes.append(y)
            t += step
        return np.stack(nodes)

    def error(flow, q0):
        gap = evaluate_on_nodes(flow.nodes(slice(None)), q0) - rk4(q0)
        return float(element_norms(flow.descriptor, gap).max(initial=0.0))

    half_q0 = problem.q0 / 2.0
    halved = solve_lax(LaxProblem(problem.initial, problem.path, half_q0, problem.order,
                                  problem.grid))
    return error(result.flow, problem.q0), error(halved.flow, half_q0)


def cauchy_on_nodes(descriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The truncated Cauchy products of two ``(nodes, N+1, ...)`` stacks, node by node:
    grade ``n`` is one ``stacked_product`` call over every node's pairs ``(i, n - i)``."""
    return np.stack([stacked_product(descriptor, a[:, :n + 1], b[:, n::-1]).sum(axis=1)
                     for n in range(a.shape[1])], axis=1)


def right_divide_on_nodes(descriptor, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``x g^(-1)`` node by node, for a unit-headed ``g``: the forward substitution ``y_n =
    x_n - sum_{i=1..n} y_{n-i} g_i``, one ``stacked_product`` call per grade over every
    node's pairs."""
    y = x.astype(np.result_type(x, g))
    for n in range(1, y.shape[1]):
        y[:, n] -= stacked_product(descriptor, y[:, n - 1::-1], g[:, 1:n + 1]).sum(axis=1)
    return y


def conjugate_on_nodes_reference(group, initial: AlgebraElement) -> np.ndarray:
    """``g L0 g^(-1)`` node by node on the sampled group; the reference for
    ``lax.conjugate``, which works on the group's polynomials instead."""
    g = group.nodes(slice(None))
    return right_divide_on_nodes(group.descriptor,
                                 stacked_product(group.descriptor, g, initial.data), g)


def trace_drift_on_nodes(flow, max_power: int) -> dict[int, np.ndarray]:
    """Per grade, the largest ``|trace(L^k)_n(t) - trace(L^k)_n(0)|`` on the nodes, from
    Cauchy products of the sampled flow: the node route that
    ``lax.conserved_trace_tables`` bounds on all of ``[0, T]``."""
    drifts = {}
    power = values = flow.nodes(slice(None))
    for k in range(1, max_power + 1):
        if k > 1:
            power = cauchy_on_nodes(flow.descriptor, power, values)
        traces = np.trace(power, axis1=-2, axis2=-1)
        drifts[k] = np.abs(traces - traces[0]).max(axis=0)
    return drifts


def lax_residual_on_nodes(result) -> np.ndarray:
    """Per grade, the largest norm on the nodes of the flow equation's residual
    polynomials: the node route that ``lax.lax_residual`` bounds on all of ``[0, T]``."""
    flow = result.flow
    descriptor = flow.descriptor
    residuals = _residual_polynomials(lambda p, x: stacked_commutator(descriptor, p, x), flow,
                                      result.problem.path, result.problem.q0)
    s = flow.times / flow.times[-1]
    worst = np.zeros(len(residuals))
    for i in range(1, len(residuals)):
        powers = s[:, None] ** np.arange(i - 1, i - 1 + len(residuals[i]))
        worst[i] = element_norms(descriptor, np.tensordot(powers, residuals[i], axes=1)).max()
    return worst


def count_samples(monkeypatch) -> list:
    """Record the node samplings: patch ``timeorder._sample_grades`` wherever a ``qlax``
    module holds it, and return the list each call then appends its descriptor and the
    positions of the nodes it samples to."""
    original = timeorder._sample_grades
    calls = []

    def counted(grades, descriptor, times, index=slice(None)):
        calls.append((descriptor, np.arange(len(times))[index]))
        return original(grades, descriptor, times, index)

    for name, module in list(sys.modules.items()):
        if ((name == "qlax" or name.startswith("qlax."))
                and getattr(module, "_sample_grades", None) is original):
            monkeypatch.setattr(module, "_sample_grades", counted)
    return calls


class KernelCall(NamedTuple):
    """One call of the diffop kernel: its descriptor, two factor stacks and products."""

    descriptor: object
    a: np.ndarray
    b: np.ndarray
    products: np.ndarray

    @property
    def pairs(self) -> int:
        """The pairs the call multiplies: the size of its factors' broadcast leading axes."""
        return math.prod(np.broadcast_shapes(self.a.shape, self.b.shape)[:-2])

    def pair_products(self, kernel) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each pair, in the order of the broadcast leading axes, its product in this
        call and its product from a ``kernel`` call on that pair alone."""
        a, b = (x.reshape(-1, *x.shape[-2:]) for x in np.broadcast_arrays(self.a, self.b))
        return [(product, kernel(self.descriptor, x[None], y[None])[0]) for product, x, y
                in zip(self.products.reshape(-1, *self.products.shape[-2:]), a, b)]


def record_kernel_calls(monkeypatch) -> list[KernelCall]:
    """Record the diffop kernel's calls: patch ``algebra._diffop_products`` and return the
    list each call then appends its :class:`KernelCall` to."""
    original = algebra._diffop_products
    calls = []

    def recorded(descriptor, a, b):
        calls.append(KernelCall(descriptor, a, b, original(descriptor, a, b)))
        return calls[-1].products

    monkeypatch.setattr(algebra, "_diffop_products", recorded)
    return calls


def flow_csv_reference(times: np.ndarray, norms: np.ndarray) -> str:
    """``flow.csv`` as ``csv.writer`` writes it: ``t, grade, coeff_norm`` for every node and
    grade, ``norms`` holding one row of grade norms per node of ``times``."""
    grades = [str(grade) for grade in range(norms.shape[1])]
    column = [t for t in map(float.__repr__, times.tolist()) for _grade in grades]
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["t", "grade", "coeff_norm"])
    writer.writerows(zip(column, grades * len(times), map(float.__repr__, norms.ravel().tolist())))
    return text.getvalue()
