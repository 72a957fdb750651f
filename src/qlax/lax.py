"""Lax flows driven by scaled operator paths.

The flow ``d/dt L = [q P(q0 t), L]`` with ``L(0) = L0`` is solved two ways, both
exact for every accepted path, so the grid's step sets only where the nodes lie:

* conjugation: ``L(t) = g(t) L0 g(t)^(-1)`` with ``g`` the time-ordered
  exponential of the scaled path (the default solver).  Every grade of ``g`` is
  a polynomial in ``t``, so the forward substitution runs once, on those
  polynomials' coefficients, whatever the number of nodes, and the flow's
  polynomials are then sampled like the group's; and
* direct grade-by-grade integration of the bracket system
  ``L_0 = L0``, ``L_i' = [P(q0 t), L_{i-1}]`` (an independent second route).

Both take one :class:`~qlax.timeorder.LaxProblem`, the checked inputs of
every integration, which this module re-exports with its defaults.

Diagnostics: a centred-difference residual of the flow equation and a plain RK4
oracle for the evaluated series, whose error must shrink like ``q0^(order+1)``,
both with floors set by the step; conserved traces of powers (conjugation invariance).

Flows and diagnostics work on the stacked ``(nodes, N+1, *shape)`` arrays of
:class:`~qlax.timeorder.FlowSample`; the trace tables and the checks
(``series.grade_max_norms``, ``series.centred_residual``) run in blocks of
about ``algebra.BLOCK_BYTES`` of series, so their temporaries stay small
whatever the grid length and coefficient size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from qlax.algebra import (
    MATRIX,
    AlgebraElement,
    CapabilityError,
    DomainError,
    ShapeMismatchError,
    blocks,
    element_norms,
    matrix_element,
    stacked_commutator,
    stacked_product,
    unit_payload,
)
from qlax.series import (
    GradedSeries,  # bench/test_bench.py reaches it as lax.GradedSeries
    cauchy_product,
    centred_residual,
    evaluate_values,
    grade_max_norms,
)
from qlax.timeorder import (
    DEFAULT_GRID,
    DEFAULT_ORDER,
    DEFAULT_SCALING,
    FlowSample,
    LaxProblem,
    OperatorPath,
    _expand_grid,
    _integrate_polynomial,
    _sample_grades,
    time_ordered_exp,
)


@dataclass(frozen=True, eq=False)
class LaxFlowResult:
    """Solver output: the group path ``g`` and the conjugated flow ``L``."""

    problem: LaxProblem
    group: FlowSample
    flow: FlowSample


def solve_lax(problem: LaxProblem) -> LaxFlowResult:
    """Conjugation solver: ``L(t) = g(t) L0 g(t)^(-1)`` on every node."""
    group = time_ordered_exp(problem.path, problem.q0, problem.order, problem.grid)
    return LaxFlowResult(problem=problem, group=group, flow=conjugate(group, problem.initial))


def conjugate(group: FlowSample, initial: AlgebraElement) -> FlowSample:
    """The flow ``g(t) L0 g(t)^(-1)`` of ``L0 = initial``, from the group's polynomials.

    ``L g = g L0`` grade by grade is the forward substitution ``L_n = (g L0)_n -
    sum_{i=1..n} L_{n-i} * g_i``, where ``*`` multiplies two polynomials in ``s =
    t/T`` (``group.coefficients``).  ``g L0`` is one product call over all of
    ``g``'s coefficients, and grade ``n`` one call over every pair ``(i, a, b)`` of
    a nonzero coefficient ``a`` of ``L_{n-i}`` and a nonzero coefficient ``b`` of
    ``g_i``.  Each power of ``s`` sums its terms with ``i``, then ``a``, ascending,
    from ``-0.0`` as :func:`~qlax.series.graded_product` does, and the sum is
    subtracted from ``(g L0)_n``; a power no pair reaches keeps ``(g L0)_n``.  The
    flow is then sampled on the group's nodes, and keeps its polynomials.
    """
    descriptor = group.descriptor
    if initial.descriptor != descriptor:
        raise ShapeMismatchError("initial element and group live in different algebras")
    if group.coefficients is None:
        raise DomainError("the conjugation needs the group's polynomial coefficients")
    grades = group.coefficients
    if not np.array_equal(grades[0][0], unit_payload(descriptor)):
        raise DomainError("grade-0 coefficient must equal the unit")
    starts = np.cumsum([0] + [len(grade) for grade in grades])
    g = np.concatenate(grades)
    flow = stacked_product(descriptor, g, initial.data[None])  # g L0, then L grade by grade
    nonzero_g = g.reshape(len(g), -1).any(axis=1)
    nonzero = flow.reshape(len(flow), -1).any(axis=1)
    size = g[0].size
    for n in range(1, len(grades)):
        pairs = []
        for i in range(1, n + 1):
            a = np.flatnonzero(nonzero[starts[n - i]:starts[n - i + 1]])
            b = np.flatnonzero(nonzero_g[starts[i]:starts[i + 1]])
            pairs.append((np.repeat(starts[n - i] + a, len(b)), np.tile(starts[i] + b, len(a)),
                          np.add.outer(a, b).ravel()))
        left, right, power = (np.concatenate(column) for column in zip(*pairs))
        # every sum starts at -0.0, the exact additive identity, and takes one flat
        # index per entry of each term, so that add.at adds them in order on its fast path
        total = np.negative(np.zeros((starts[n + 1] - starts[n], *descriptor.shape),
                                     dtype=flow.dtype))
        entries = np.add.outer(power * size, np.arange(size)).ravel()
        np.add.at(total.reshape(-1), entries,
                  stacked_product(descriptor, flow[left], g[right]).reshape(-1))
        reached = np.flatnonzero(np.bincount(power, minlength=len(total)))
        flow[starts[n] + reached] -= total[reached]
        nonzero[starts[n]:starts[n + 1]] = flow[starts[n]:starts[n + 1]].reshape(
            len(total), -1).any(axis=1)
    polynomials = np.split(flow, starts[1:-1])
    values = _sample_grades(polynomials, descriptor, group.times)
    return FlowSample(times=group.times, values=values, descriptor=descriptor,
                      step=group.step, order=group.order, q0=group.q0, coefficients=polynomials)


def integrate_directly(problem: LaxProblem) -> FlowSample:
    """Second route: the triangular bracket system solved exactly, no conjugation."""
    descriptor = problem.initial.descriptor
    return _integrate_polynomial(lambda p, x: stacked_commutator(descriptor, p, x), problem)


def flow_difference(a: FlowSample, b: FlowSample) -> np.ndarray:
    """Per-grade max norm of the difference of two flows; only their ``q0`` may differ."""
    if (a.descriptor != b.descriptor or a.values.shape != b.values.shape
            or not np.array_equal(a.times, b.times)):
        raise ShapeMismatchError("flow samples differ in algebra, times or order")
    return grade_max_norms(a.descriptor, a.values,
                           lambda block: a.values[block] - b.values[block])


def lax_residual(result: LaxFlowResult) -> np.ndarray:
    """Per-grade residual of ``d/dt L = [q P(q0 t), L]`` by centred differences."""
    flow = result.flow
    problem = result.problem

    def residual(inner, derivative):
        p = problem.path.sample(problem.q0 * flow.times[inner])[:, None]
        derivative[:, 1:] -= stacked_commutator(flow.descriptor, p, flow.values[inner, :-1])
        return derivative

    return centred_residual(flow.descriptor, flow.values, flow.step, residual)


@dataclass(frozen=True, eq=False)
class TraceDriftTable:
    """Per-node grade coefficients of ``trace(L^k)`` and their drift from t=0; ``k`` is
    the table's key and the nodes are the flow's ``times``."""

    values: np.ndarray  # shape (nodes, order + 1)
    drift: np.ndarray   # shape (order + 1,)


def conserved_trace_tables(result: LaxFlowResult, max_power: int) -> dict[int, TraceDriftTable]:
    """Trace-of-power tables for every ``k <= max_power`` in one pass."""
    if result.flow.descriptor.backend != MATRIX:
        raise CapabilityError("trace diagnostics need the matrix backend")
    if not 1 <= max_power <= 4:
        raise DomainError("trace powers are supported for 1 <= k <= 4")
    flow = result.flow
    descriptor = flow.descriptor
    values = {k: np.empty((len(flow), flow.order + 1), dtype=descriptor.dtype)
              for k in range(1, max_power + 1)}
    for block in blocks(len(flow), flow.values[0].nbytes):
        node = flow.values[block]
        power = node
        for k in range(1, min(max_power, 3) + 1):
            if k > 1:
                power = cauchy_product(descriptor, power, node)
            # summed over a contiguous axis, as ndarray.trace sums one matrix
            diagonal = np.ascontiguousarray(np.diagonal(power, axis1=-2, axis2=-1))
            values[k][block] = diagonal.sum(axis=-1)
        if max_power == 4:
            # only the trace of L^4 is kept: grade n is sum_i trace(L^3_i L_(n-i)),
            # added with i ascending; trace(A B) sums A * B^T over one contiguous axis,
            # whose order, unlike einsum's, does not depend on the block's length
            table = values[4][block]
            table[:] = 0.0
            for i in range(flow.order + 1):
                terms = power[:, i, None] * np.swapaxes(node[:, :flow.order + 1 - i], -1, -2)
                table[:, i:] += terms.reshape(*terms.shape[:2], -1).sum(axis=-1)
    return {k: TraceDriftTable(values=table, drift=np.abs(table - table[0]).max(axis=0))
            for k, table in values.items()}


def _rk4_evolution(problem: LaxProblem, scalings: tuple[float, ...]) -> np.ndarray:
    """Plain RK4 for ``y' = [s P(s t), y]`` (no grading), on raw matrices.

    All scalings ``s`` step together as one stack; returns the
    ``(nodes, len(scalings), n, n)`` array of the evolved matrices.
    """
    step, _horizon, steps = _expand_grid(problem.grid)
    half = 0.5 * step
    sixth = step / 6.0
    # the step starts summed one step at a time, as ``t += step`` would
    starts = np.cumsum(np.concatenate(([0.0], np.full(steps - 1, step))))
    paths = [problem.path.scaled(s) for s in scalings]
    start, middle, end = (np.stack([path.sample(times) for path in paths], axis=1)
                          for times in (starts, starts + half, starts + step))

    def bracket(a, y):
        return a @ y - y @ a

    y = np.stack([problem.initial.data] * len(scalings))
    nodes = np.empty((steps + 1, *y.shape), dtype=y.dtype)
    nodes[0] = y
    for k in range(steps):
        k1 = bracket(start[k], y)
        k2 = bracket(middle[k], y + half * k1)
        k3 = bracket(middle[k], y + half * k2)
        k4 = bracket(end[k], y + step * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nodes[k + 1] = y
    return nodes


def oracle_errors(results: list[LaxFlowResult]) -> list[float]:
    """Each solve's evaluated-series error against plain RK4 at its own scaling.

    The solves may differ only in ``q0``; the RK4 reference steps all their
    scalings as one stack, so every scaling is integrated once.
    """
    problem = results[0].problem
    if problem.initial.descriptor.backend != MATRIX:
        raise CapabilityError("the evaluation oracle needs the matrix backend")
    for other in results[1:]:
        if (other.problem.initial != problem.initial or other.problem.path != problem.path
                or other.problem.order != problem.order or other.problem.grid != problem.grid):
            raise ShapeMismatchError("oracle solves differ in more than their scaling")
    reference = _rk4_evolution(problem, tuple(result.problem.q0 for result in results))
    errors = []
    for k, result in enumerate(results):
        flow = result.flow
        gap = evaluate_values(flow.descriptor, flow.values, flow.q0) - reference[:, k]
        errors.append(float(element_norms(flow.descriptor, gap).max(initial=0.0)))
    return errors


def oracle_integrate(result: LaxFlowResult) -> tuple[float, float]:
    """The evaluated-series errors ``(error, error_half)`` against plain RK4 at q0 and q0/2.

    ``result`` is the solve at the problem's own ``q0``; only the ``q0/2``
    flow is solved here.  The truncation error scales like ``q0^(order+1)``,
    so ``error / error_half`` should be about ``2^(order+1)``.
    """
    problem = result.problem
    halved = solve_lax(replace(problem, q0=problem.q0 / 2.0))
    error, error_half = oracle_errors([result, halved])
    return error, error_half


# -- presets ----------------------------------------------------------------

# name -> (L0 rows, P rows); toda-3 is a symmetric tridiagonal L0 driven by
# its antisymmetric part
_PRESETS = {
    "sl2-nilpotent": ([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]),
    "toda-3": ([[0.5, 0.4, 0.0], [0.4, 0.0, 0.4], [0.0, 0.4, -0.5]],
               [[0.0, 0.4, 0.0], [-0.4, 0.0, 0.4], [0.0, -0.4, 0.0]]),
    "rotation-2": ([[1.0, 0.0], [0.0, -1.0]], [[0.0, -0.4], [0.4, 0.0]]),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_problem(name: str, *, q0: float = DEFAULT_SCALING, order: int = DEFAULT_ORDER,
                   grid: tuple[float, float] = DEFAULT_GRID) -> LaxProblem:
    """A named desk-scale problem; see :data:`PRESET_NAMES`."""
    if name not in PRESET_NAMES:  # a tuple: an unhashable name is unknown, not a TypeError
        raise DomainError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")
    initial, generator = _PRESETS[name]
    path = OperatorPath.constant(matrix_element(generator), name=name)
    return LaxProblem(initial=matrix_element(initial), path=path, q0=q0, order=order, grid=grid)
