"""Lax flows driven by scaled operator paths.

The flow ``d/dt L = [q P(q0 t), L]`` with ``L(0) = L0`` is solved two ways, both
exact for every accepted path, so the grid's step sets only where the nodes lie:

* conjugation: ``L(t) = g(t) L0 g(t)^(-1)`` with ``g`` the time-ordered
  exponential of the scaled path (the default solver).  Every grade of ``g`` is
  a polynomial in ``t``, so the forward substitution
  (:func:`~qlax.series.right_divide`) runs once, on those polynomials'
  coefficients, whatever the number of nodes, with one product call per finished
  grade of the flow.  The flow's own polynomials,
  like the group's, are sampled only on the nodes a caller reads; and
* direct grade-by-grade integration of the bracket system
  ``L_0 = L0``, ``L_i' = [P(q0 t), L_{i-1}]`` (an independent second route).

Both take one :class:`~qlax.timeorder.LaxProblem`, the checked inputs of
every integration, which this module re-exports with its defaults.

Diagnostics: the residual of the flow equation and the conserved traces of powers
(conjugation invariance; the powers are :func:`~qlax.series.graded_product` s), both
taken on the flow's polynomials in ``s = t/T`` with no node, so their floor is roundoff
and each grade's value, the sum of the norms of its gap's coefficients, bounds the gap
on all of ``[0, T]``; and an oracle, the evaluated
series' gap on the nodes to the exact series, which must shrink like
``q0^(order+1)`` to roundoff.  :func:`flow_difference` bounds the gap of two flows the
same way.  A sample is its polynomials, and no function here samples a node; of the
commands, only the ``flow.csv`` writer does, a block of nodes at a time.
"""

from __future__ import annotations

import math
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
)
from qlax.series import (
    GradedSeries,  # bench/test_bench.py reaches it as lax.GradedSeries
    dense,
    evaluated,
    graded_product,
    right_divide,
)
from qlax.timeorder import (
    DEFAULT_GRID,
    DEFAULT_ORDER,
    DEFAULT_SCALING,
    FlowSample,
    LaxProblem,
    OperatorPath,
    _checked_polynomials,
    _expand_grid,
    _grade_polynomials,
    _integrate_polynomial,
    _residual_polynomials,
    coefficient_bounds,
    time_ordered_exp,
)


@dataclass(frozen=True, eq=False)
class LaxFlowResult:
    """Solver output: the group path ``g`` and the conjugated flow ``L``."""

    problem: LaxProblem
    group: FlowSample
    flow: FlowSample


def solve_lax(problem: LaxProblem) -> LaxFlowResult:
    """Conjugation solver: ``L(t) = g(t) L0 g(t)^(-1)`` on the grid's nodes, with no node
    of the group or the flow sampled until it is read."""
    group = time_ordered_exp(problem.path, problem.q0, problem.order, problem.grid)
    return LaxFlowResult(problem=problem, group=group, flow=conjugate(group, problem.initial))


def conjugate(group: FlowSample, initial: AlgebraElement) -> FlowSample:
    """The flow ``g(t) L0 g(t)^(-1)`` of ``L0 = initial``: :func:`conjugated_polynomials`
    on the group's times, each node sampled when it is read."""
    return FlowSample(group.times, group.descriptor, conjugated_polynomials(group, initial),
                      step=group.step, q0=group.q0)


def conjugated_polynomials(group: FlowSample, initial: AlgebraElement) -> list[np.ndarray]:
    """The polynomials in ``s = t/T`` of ``g(t) L0 g(t)^(-1)``, laid out as a
    :class:`~qlax.timeorder.FlowSample`'s ``coefficients``: ``L g = g L0`` solved by
    :func:`~qlax.series.right_divide` on the group's coefficients, where ``g L0`` is one
    product call over all of them, and each finished grade ``k`` of ``L`` one call against
    all of ``g_1 .. g_(N-k)``: ``N + 1`` calls in all."""
    descriptor = group.descriptor
    if initial.descriptor != descriptor:
        raise ShapeMismatchError("initial element and group live in different algebras")
    grades = group.coefficients
    head = stacked_product(descriptor, np.concatenate(grades), initial.data[None])  # g L0
    starts = np.cumsum([len(grade) for grade in grades[:-1]])
    return right_divide(descriptor, np.split(head, starts), grades)


def integrate_directly(problem: LaxProblem) -> FlowSample:
    """Second route: the triangular bracket system solved exactly, no conjugation."""
    descriptor = problem.initial.descriptor
    return _integrate_polynomial(lambda p, x: stacked_commutator(descriptor, p, x), problem)


def flow_difference(a: FlowSample, b: FlowSample) -> np.ndarray:
    """Per-grade bound on ``[0, T]`` of the difference of two flows' polynomials
    (:func:`~qlax.timeorder.coefficient_bounds`); only their ``q0`` may differ."""
    if a.descriptor != b.descriptor or not np.array_equal(a.times, b.times):
        raise ShapeMismatchError("flow samples differ in algebra or times")
    if list(map(len, a.coefficients)) != list(map(len, b.coefficients)):
        raise ShapeMismatchError("flow samples differ in order or path degree")
    return coefficient_bounds(a.descriptor, list(map(np.subtract, a.coefficients, b.coefficients)))


def lax_residual(result: LaxFlowResult) -> np.ndarray:
    """Per-grade bound on ``[0, T]`` of the residual ``L_i' - [P(q0 t), L_(i-1)]`` of ``d/dt
    L = [q P(q0 t), L]``, from the flow's polynomials: the derivative is exact, so the
    floor is roundoff (:func:`~qlax.timeorder.coefficient_bounds`)."""
    flow, problem = result.flow, result.problem
    return coefficient_bounds(flow.descriptor, _residual_polynomials(
        lambda p, x: stacked_commutator(flow.descriptor, p, x), flow, problem.path, problem.q0))


@dataclass(frozen=True, eq=False)
class TraceDriftTable:
    """The coefficients of ``trace(L^k)`` (``k`` the table's key) by grade and power of ``s =
    t/T``.  ``drift[n] = sum_(j>=1) |coefficients[n, j]|`` bounds grade ``n``'s drift from
    ``t = 0`` on all of ``[0, T]``; ``trace(L^k)`` is conserved, so it should vanish."""

    coefficients: np.ndarray  # shape (order + 1, order (d + 1) + 1), d the path's degree
    drift: np.ndarray         # shape (order + 1,)


def conserved_trace_tables(result: LaxFlowResult, max_power: int) -> dict[int, TraceDriftTable]:
    """Trace-of-power tables for every ``k <= max_power``, from the flow's polynomials:
    ``L^2`` and ``L^3`` are :func:`~qlax.series.graded_product` s of their
    :func:`~qlax.series.dense` layout, and ``trace(L^4)`` keeps only ``sum trace(L^3_(i, a)
    L_(j, b))``.  No node is touched."""
    flow, descriptor = result.flow, result.flow.descriptor
    if descriptor.backend != MATRIX:
        raise CapabilityError("trace diagnostics need the matrix backend")
    if not 1 <= max_power <= 4:
        raise DomainError("trace powers are supported for 1 <= k <= 4")
    power = layout = dense(_checked_polynomials(flow, result.problem.path.degree))
    traces = {}
    for k in range(1, min(max_power, 3) + 1):
        if k > 1:
            power = graded_product(power, layout, lambda a, b: stacked_product(descriptor, a, b))
        # summed over a contiguous axis, as ndarray.trace sums one matrix
        traces[k] = np.ascontiguousarray(np.diagonal(power, axis1=-2, axis2=-1)).sum(axis=-1)
    if max_power == 4:  # trace(A B) sums A * B^T over one contiguous axis
        traces[4] = graded_product(power, layout, lambda a, b: (
            a * np.swapaxes(b, -1, -2)).reshape(len(a), descriptor.n ** 2).sum(axis=-1))
    return {k: TraceDriftTable(coefficients=table, drift=np.abs(table[:, 1:]).sum(axis=1))
            for k, table in traces.items()}


def _reference_problem(problem: LaxProblem) -> LaxProblem | None:
    """``problem`` at the least order ``M > N`` whose Dyson remainder is below roundoff.

    With ``x = 2 q0 sum_e ||P_e|| q0^e T^(e+1)/(e+1)``, the grades past ``M`` add at most
    ``||L0|| sum_(i>M) x^i/i!`` (Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 2009): at
    least ``||L0||`` while ``M + 2 <= x``, at most ``x^(M+1)/(M+1)! / (1 - x/(M+2))``
    after, and ``M`` is the least order where that bound is at most ``2^-53``.  Each
    order tried is a :class:`LaxProblem`, so the size cap ends the search; a non-finite
    ``x`` has no reference (``None``).
    """
    powers = np.arange(1, problem.path.degree + 2)
    norms = element_norms(problem.path.descriptor, np.stack([c.data for c in problem.path.coeffs]))
    scale = problem.q0 * _expand_grid(problem.grid)[1]
    x = 2.0 * float(np.sum(norms * scale ** powers / powers))
    if not math.isfinite(x):
        return None
    order = max(problem.order + 1, math.floor(x) - 1)
    while True:
        try:
            reference = replace(problem, order=order)
        except DomainError as exc:
            raise DomainError(f"the oracle's order-{order} reference: {exc}") from exc
        if x == 0.0 or ((order + 1) * math.log(x) - math.lgamma(order + 2)
                        - math.log1p(-x / (order + 2)) <= -53 * math.log(2.0)):
            return reference
        order += 1


def oracle_errors(result: LaxFlowResult, scalings) -> list[float]:
    """For each ``q`` in ``scalings``, the largest gap on the nodes between the series
    solved and evaluated at ``q`` and the exact flow ``sum_(i<=M) q^i L_i``; NaN if there
    is no reference (:func:`_reference_problem`).

    ``q`` enters grade ``i``'s coefficient of ``s^(i + j)`` only as ``q^j``, so that
    series on ``s = t/T`` is the solve's, at its ``q0``, on ``(q/q0) s``: the gap to one
    reference, the bracket recurrence (not the conjugation under test) at ``q0``, is
    evaluated there (:func:`~qlax.series.evaluated`), one block of nodes
    (:func:`~qlax.algebra.blocks`) at a time.  A ``q`` outside ``(0, q0]`` is a
    :class:`DomainError`.
    """
    problem = result.problem
    descriptor = problem.initial.descriptor
    if descriptor.backend != MATRIX:
        raise CapabilityError("the evaluation oracle needs the matrix backend")
    if not all(0.0 < q <= problem.q0 for q in scalings):
        raise DomainError(f"oracle scalings must lie in (0, {problem.q0}], the solve's q0")
    reference = _reference_problem(problem)
    if reference is None:
        return [math.nan] * len(scalings)
    flow = _checked_polynomials(result.flow, problem.path.degree)
    exact = _grade_polynomials(lambda p, x: stacked_commutator(descriptor, p, x), reference)
    gap = [flow[i] - grade if i < len(flow) else -grade for i, grade in enumerate(exact)]
    times = result.flow.times
    nodes = blocks(len(times), math.prod(descriptor.shape) * descriptor.dtype.itemsize)
    return [max(float(element_norms(descriptor, evaluated(
        gap, problem.q0, q / problem.q0 * (times[block] / times[-1]))).max(initial=0.0))
        for block in nodes) for q in scalings]


def oracle_integrate(result: LaxFlowResult) -> tuple[float, float]:
    """The oracle errors ``(error, error_half)`` of :func:`oracle_errors` at q0 and q0/2,
    both from the one solve ``result``.  The truncation error scales like
    ``q0^(order+1)``, so ``error / error_half`` should be about ``2^(order+1)``."""
    q0 = result.problem.q0
    return tuple(oracle_errors(result, (q0, q0 / 2.0)))


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
