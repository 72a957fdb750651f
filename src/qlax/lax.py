"""Lax flows driven by scaled operator paths.

The flow ``d/dt L = [q P(q0 t), L]`` with ``L(0) = L0`` is solved two ways:

* conjugation: ``L(t) = g(t) L0 g(t)^(-1)`` with ``g`` the time-ordered
  exponential of the scaled path (the default solver, by forward substitution), and
* direct grade-by-grade integration of the bracket system
  ``L_0 = L0``, ``L_i' = [P(q0 t), L_{i-1}]`` (an independent second route).

Diagnostics: a centred-difference residual of the flow equation, conserved
traces of powers (conjugation invariance), and a plain RK4 oracle for the
evaluated series, whose error must shrink like ``q0^(order+1)``.

Flows and diagnostics work on the stacked ``(nodes, N+1, *shape)`` arrays of
:class:`~qlax.timeorder.FlowSample`; the conjugation, the trace tables and
the checks (``series.grade_max_norms``, ``series.centred_residual``) run in
blocks of about ``algebra.BLOCK_BYTES`` of series, so their temporaries stay
small whatever the grid length and coefficient size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
)
from qlax.series import (
    GradedSeries,
    cauchy_product,
    centred_residual,
    evaluate_values,
    grade_max_norms,
    right_divide,
)
from qlax.timeorder import (
    FlowSample,
    OperatorPath,
    _check_scaling,
    _expand_grid,
    _integrate_chain,
    time_ordered_exp,
)

DEFAULT_ORDER = 8
DEFAULT_GRID = (1e-3, 1.0)
DEFAULT_SCALING = 0.5


@dataclass(frozen=True)
class LaxProblem:
    """A Lax flow instance: initial element, driving path, scaling, truncation, grid."""

    initial: AlgebraElement
    path: OperatorPath
    q0: float = DEFAULT_SCALING
    order: int = DEFAULT_ORDER
    grid: tuple[float, float] = DEFAULT_GRID

    def __post_init__(self) -> None:
        if self.initial.descriptor != self.path.descriptor:
            raise ShapeMismatchError("initial element and path live in different algebras")
        _check_scaling(self.q0)
        if self.order < 1:
            raise DomainError("truncation order must be >= 1")
        _expand_grid(self.grid)


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
    """The flow ``g(t) L0 g(t)^(-1)`` of ``L0 = initial``: ``right_divide(g L0, g)``."""
    descriptor = group.descriptor
    if initial.descriptor != descriptor:
        raise ShapeMismatchError("initial element and group live in different algebras")
    head = GradedSeries.single(descriptor, group.order, 0, initial).values[None]
    values = np.empty(group.values.shape, dtype=descriptor.dtype)
    for block in blocks(len(group), group.values[0].nbytes):
        g = group.values[block]
        values[block] = right_divide(descriptor, cauchy_product(descriptor, g, head), g)
    return FlowSample(times=group.times, values=values, descriptor=descriptor,
                      step=group.step, order=group.order, q0=group.q0)


def integrate_directly(problem: LaxProblem) -> FlowSample:
    """Second route: RK4 on the triangular bracket system, no conjugation."""
    descriptor = problem.initial.descriptor
    times, values = _integrate_chain(lambda p, x: stacked_commutator(descriptor, p, x),
                                     problem.path, problem.q0, problem.initial,
                                     problem.order, problem.grid)
    return FlowSample(times=times, values=values, descriptor=descriptor,
                      step=float(problem.grid[0]), order=problem.order, q0=problem.q0)


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
    """Per-node grade coefficients of ``trace(L^power)`` and their drift from t=0."""

    power: int
    times: np.ndarray
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
        for k in range(1, max_power + 1):
            if k > 1:
                power = cauchy_product(descriptor, power, node)
            # summed over a contiguous axis, as ndarray.trace sums one matrix
            diagonal = np.ascontiguousarray(np.diagonal(power, axis1=-2, axis2=-1))
            values[k][block] = diagonal.sum(axis=-1)
    tables = {}
    for k in range(1, max_power + 1):
        drift = np.abs(values[k] - values[k][0]).max(axis=0)
        tables[k] = TraceDriftTable(power=k, times=flow.times, values=values[k], drift=drift)
    return tables


@dataclass(frozen=True, eq=False)
class OracleComparison:
    """Evaluated-series error against a plain RK4 integration, at q0 and q0/2."""

    q0: float
    error: float
    error_half: float
    log2_ratio: float
    expected_order: int


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


def oracle_integrate(result: LaxFlowResult) -> OracleComparison:
    """Compare the evaluated series against direct integration at q0 and q0/2.

    ``result`` is the solve at the problem's own ``q0``; only the ``q0/2``
    flow is solved here.  The truncation error scales like ``q0^(order+1)``,
    so halving the scaling should divide the error by about ``2^(order+1)``.
    """
    problem = result.problem
    halved = solve_lax(LaxProblem(problem.initial, problem.path, problem.q0 / 2.0,
                                  problem.order, problem.grid))
    error, error_half = oracle_errors([result, halved])
    if error > 0.0 and error_half > 0.0:
        ratio = math.log2(error / error_half)
    else:
        ratio = math.inf if error > error_half else 0.0
    return OracleComparison(q0=problem.q0, error=error, error_half=error_half,
                            log2_ratio=ratio, expected_order=problem.order + 1)


# -- presets ----------------------------------------------------------------

def _preset_sl2_nilpotent() -> tuple[AlgebraElement, OperatorPath]:
    initial = matrix_element([[0.0, 0.0], [1.0, 0.0]])
    raising = matrix_element([[0.0, 1.0], [0.0, 0.0]])
    return initial, OperatorPath.constant(raising, name="sl2-nilpotent")


def _preset_toda_3() -> tuple[AlgebraElement, OperatorPath]:
    # Symmetric tridiagonal initial element with its antisymmetric part as the path.
    off = 0.4
    diagonal = (0.5, 0.0, -0.5)
    initial = matrix_element([
        [diagonal[0], off, 0.0],
        [off, diagonal[1], off],
        [0.0, off, diagonal[2]],
    ])
    antisymmetric = matrix_element([
        [0.0, off, 0.0],
        [-off, 0.0, off],
        [0.0, -off, 0.0],
    ])
    return initial, OperatorPath.constant(antisymmetric, name="toda-3")


def _preset_rotation_2() -> tuple[AlgebraElement, OperatorPath]:
    initial = matrix_element([[1.0, 0.0], [0.0, -1.0]])
    generator = matrix_element([[0.0, -0.4], [0.4, 0.0]])
    return initial, OperatorPath.constant(generator, name="rotation-2")


_PRESETS = {
    "sl2-nilpotent": _preset_sl2_nilpotent,
    "toda-3": _preset_toda_3,
    "rotation-2": _preset_rotation_2,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_problem(name: str, *, q0: float = DEFAULT_SCALING, order: int = DEFAULT_ORDER,
                   grid: tuple[float, float] = DEFAULT_GRID) -> LaxProblem:
    """A named desk-scale problem; see :data:`PRESET_NAMES`."""
    try:
        build = _PRESETS[name]
    except KeyError:
        raise DomainError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")
    initial, path = build()
    return LaxProblem(initial=initial, path=path, q0=q0, order=order, grid=grid)
