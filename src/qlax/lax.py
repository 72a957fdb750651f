"""Lax flows driven by scaled operator paths.

The flow ``d/dt L = [q P(q0 t), L]`` with ``L(0) = L0`` is solved two ways, both
exact for every accepted path, so the grid's step sets only where the nodes lie:

* conjugation: ``L(t) = g(t) L0 g(t)^(-1)`` with ``g`` the time-ordered
  exponential of the scaled path (the default solver).  Every grade of ``g`` is
  a polynomial in ``t``, so the forward substitution
  (:func:`~qlax.series.right_divide`) runs once, on those polynomials'
  coefficients, whatever the number of nodes, and the flow's polynomials are
  then sampled like the group's; and
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
``q0^(order+1)`` to roundoff.  Only :func:`flow_difference` still compares two flows
node by node (``series.grade_max_norms``).
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
    element_norms,
    matrix_element,
    stacked_commutator,
    stacked_product,
)
from qlax.series import (
    GradedSeries,  # bench/test_bench.py reaches it as lax.GradedSeries
    dense,
    evaluate_values,
    grade_max_norms,
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
    _sample_grades,
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
    """Conjugation solver: ``L(t) = g(t) L0 g(t)^(-1)`` on every node."""
    group = time_ordered_exp(problem.path, problem.q0, problem.order, problem.grid)
    return LaxFlowResult(problem=problem, group=group, flow=conjugate(group, problem.initial))


def conjugate(group: FlowSample, initial: AlgebraElement) -> FlowSample:
    """The flow ``g(t) L0 g(t)^(-1)`` of ``L0 = initial``: :func:`conjugated_polynomials`
    sampled on the group's nodes."""
    grades = conjugated_polynomials(group, initial)
    return FlowSample(group.times, _sample_grades(grades, group.descriptor, group.times),
                      group.descriptor, step=group.step, order=group.order, q0=group.q0,
                      coefficients=grades)


def conjugated_polynomials(group: FlowSample, initial: AlgebraElement) -> list[np.ndarray]:
    """The polynomials in ``s = t/T`` of ``g(t) L0 g(t)^(-1)``, laid out as a
    :class:`~qlax.timeorder.FlowSample`'s ``coefficients``: ``L g = g L0`` solved by
    :func:`~qlax.series.right_divide` on the group's coefficients, where ``g L0`` is one
    product call over all of them."""
    descriptor = group.descriptor
    if initial.descriptor != descriptor:
        raise ShapeMismatchError("initial element and group live in different algebras")
    if group.coefficients is None:
        raise DomainError("the conjugation needs the group's polynomial coefficients")
    grades = group.coefficients
    head = stacked_product(descriptor, np.concatenate(grades), initial.data[None])  # g L0
    starts = np.cumsum([len(grade) for grade in grades[:-1]])
    return right_divide(descriptor, np.split(head, starts), grades)


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


def oracle_error(result: LaxFlowResult) -> float:
    """The largest gap on the nodes between the series evaluated at ``q0`` and the exact
    flow ``sum_(i<=M) q0^i L_i``, NaN if there is none (:func:`_reference_problem`).

    The ``L_i`` come from the bracket recurrence (:func:`integrate_directly`'s, not the
    conjugation under test); their polynomials are summed into one in ``s = t/T`` and
    sampled once on the nodes, by Horner's rule.
    """
    problem = result.problem
    descriptor = problem.initial.descriptor
    if descriptor.backend != MATRIX:
        raise CapabilityError("the evaluation oracle needs the matrix backend")
    reference = _reference_problem(problem)
    if reference is None:
        return math.nan
    grades = _grade_polynomials(lambda p, x: stacked_commutator(descriptor, p, x), reference)
    summed = np.zeros((len(grades[-1]) + reference.order, *descriptor.shape), descriptor.dtype)
    for i, grade in enumerate(grades):
        summed[i:i + len(grade)] += problem.q0 ** i * grade
    s = (result.flow.times / result.flow.times[-1])[:, None, None]
    exact = summed[-1]
    for coeff in summed[-2::-1]:
        exact = coeff + s * exact
    gap = evaluate_values(descriptor, result.flow.values, problem.q0) - exact
    return float(element_norms(descriptor, gap).max(initial=0.0))


def oracle_integrate(result: LaxFlowResult) -> tuple[float, float]:
    """The oracle errors ``(error, error_half)`` of :func:`oracle_error` at q0 and q0/2.

    ``result`` is the solve at the problem's own ``q0``; only the ``q0/2``
    flow is solved here.  The truncation error scales like ``q0^(order+1)``,
    so ``error / error_half`` should be about ``2^(order+1)``.
    """
    problem = result.problem
    return oracle_error(result), oracle_error(solve_lax(replace(problem, q0=problem.q0 / 2.0)))


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
