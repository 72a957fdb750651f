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

Diagnostics: the residual of the flow equation, taken on the flow's polynomials, so
its floor is roundoff; an oracle, the evaluated series' gap to the exact series, which
must shrink like ``q0^(order+1)`` to roundoff; conserved traces of powers
(conjugation invariance).

Flows and diagnostics work on the stacked ``(nodes, N+1, *shape)`` arrays of
:class:`~qlax.timeorder.FlowSample`; the trace tables and the node-by-node checks
(``series.grade_max_norms``) run in blocks of about ``algebra.BLOCK_BYTES`` of
series, so their temporaries stay small whatever the grid length and coefficient
size.  The residual makes no product per node: one product call per grade on the
polynomials' coefficients, then one sample of each grade's residual.
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
    unit_payload,
)
from qlax.series import (
    GradedSeries,  # bench/test_bench.py reaches it as lax.GradedSeries
    cauchy_product,
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
    _flow_residual,
    _grade_polynomials,
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
    """Per-grade max norm on the nodes of the residual ``L_i' - [P(q0 t), L_(i-1)]`` of
    ``d/dt L = [q P(q0 t), L]``, from the flow's polynomials: the derivative is exact,
    so the floor is roundoff (:func:`~qlax.timeorder._flow_residual`)."""
    flow = result.flow
    problem = result.problem
    return _flow_residual(lambda p, x: stacked_commutator(flow.descriptor, p, x), flow,
                          problem.path, problem.q0)


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
