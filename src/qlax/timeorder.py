"""Time-ordered exponentials of scaled operator paths.

For a polynomial path ``t -> P(t)`` and a scaling parameter ``q0 in (0, 1]``,
the scaled path ``t -> q P(q t)`` has a time-ordered exponential whose
grade-``i`` coefficient is the iterated simplex integral of ``i`` path factors.
Those coefficients solve the triangular linear system

    A_0(t) = 1,    A_i'(t) = P(q0 t) A_{i-1}(t),    A_i(0) = 0  (i >= 1),

whose grades are polynomials in ``t``.  This module computes their
coefficients exactly, by one product call per grade, and one sampler evaluates
every grade on the grid's nodes, whose spacing is all the grid's step sets:
one table of the powers ``(t/T)^k`` and one matrix product per grade.  The
grade marker stays formal: coefficients carry the numeric parameter ``q0``
only inside the integrand ``P(q0 s)``, and each grade-``i`` coefficient is the
weight of ``q^i`` in the group series.  A path on the grid is a
:class:`FlowSample`: its polynomial coefficients and its times, sampled into
one ``(nodes, N+1, *shape)`` array only when something first reads its
``values``.  The residual checks of the flow
equations work on those coefficients too, with one product call per grade and
none per node: the derivative of a polynomial is exact, so their floor is
roundoff, and the sum of a grade's coefficient norms (:func:`coefficient_bounds`)
bounds it on all of ``[0, T]``.  Every integration takes a :class:`LaxProblem`,
whose construction is the one check of its inputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from qlax.algebra import (
    MAX_FLOW_BYTES,
    AlgebraDescriptor,
    AlgebraElement,
    DomainError,
    ShapeMismatchError,
    element_norms,
    kernel_block_bytes,
    stacked_product,
)
from qlax.series import GradedSeries

MAX_PATH_DEGREE = 8
DEFAULT_ORDER = 8
DEFAULT_GRID = (1e-3, 1.0)
DEFAULT_SCALING = 0.5


@dataclass(frozen=True)
class OperatorPath:
    """A polynomial path ``P(t) = sum_d coeffs[d] t^d`` in one coefficient algebra.

    Of degree at most ``MAX_PATH_DEGREE``, it drives a group and flows that are
    exact polynomials in ``t``.  ``q0`` is carried but unused: every integration
    routine takes the scaling parameter explicitly, and
    :func:`~qlax.symmetry.ad_path` only forwards it.  Its removal waits on
    ROADMAP.md open item 6, since the frozen benchmark passes ``q0``
    positionally to :meth:`polynomial`.  Two paths are equal when
    their coefficients are: neither ``q0`` nor the label ``name`` takes part.
    """

    coeffs: tuple[AlgebraElement, ...]
    q0: float = field(default=1.0, compare=False)
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise DomainError("a path needs at least one coefficient")
        if len(self.coeffs) - 1 > MAX_PATH_DEGREE:
            raise DomainError(f"path degree is capped at {MAX_PATH_DEGREE}")
        descriptor = self.coeffs[0].descriptor
        for c in self.coeffs[1:]:
            if c.descriptor != descriptor:
                raise ShapeMismatchError("path coefficients live in different algebras")
        _check_scaling(self.q0)

    @classmethod
    def constant(cls, element: AlgebraElement, q0: float = 1.0,
                 name: str | None = None) -> "OperatorPath":
        return cls((element,), q0, name)

    @classmethod
    def polynomial(cls, coeffs, q0: float = 1.0, name: str | None = None) -> "OperatorPath":
        return cls(tuple(coeffs), q0, name)

    @property
    def descriptor(self) -> AlgebraDescriptor:
        return self.coeffs[0].descriptor

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def at(self, t: float) -> AlgebraElement:
        """The path at ``t``: :meth:`sample` at the one time ``t``."""
        return AlgebraElement(self.descriptor, self.sample(np.array([t]))[0])

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Payloads of the path at every ``t`` in ``times`` (Horner form), as one stack."""
        acc = np.broadcast_to(self.coeffs[-1].data, (len(times), *self.descriptor.shape))
        factors = np.asarray(times)[:, None, None]
        for d in range(self.degree - 1, -1, -1):
            acc = self.coeffs[d].data + factors * acc
        return acc


class FlowSample:
    """A series-valued path sampled on a uniform time grid.

    The whole sample is one read-only ``(nodes, order + 1, *shape)`` array,
    ``values``, of coefficients in the algebra ``descriptor``; ``series``
    shows its nodes as :class:`GradedSeries`.  Every sample the library
    produces (a group, a conjugated flow, a direct flow) is built from the
    polynomials it samples, with no values: ``coefficients[i]`` is the read-only
    ``(i d + 1, *shape)`` stack of grade ``i``'s coefficients of ``s^i .. s^(i
    (d + 1))`` in ``s = t/T``, ``d`` the path's degree and ``T`` the last time.
    Its ``values`` are sampled from them (:func:`_sample_grades`) on the first
    read, and every later read returns that same array; ``len()`` reads
    ``times``, so it samples nothing.  :func:`~qlax.lax.conjugate` reads a
    group's coefficients, the checks read any sample's, and ``qlax solve`` writes
    a flow's.  A sample built from values alone has ``None`` there.  ``times``
    is made read-only too, since samples of one solve share it.
    """

    __slots__ = ("times", "_values", "descriptor", "step", "order", "q0", "coefficients")

    def __init__(self, times, values: np.ndarray | None, descriptor: AlgebraDescriptor, *,
                 step: float, order: int, q0: float, coefficients=None):
        if values is None and coefficients is None:
            raise DomainError("a flow sample needs its values or its coefficients")
        if values is not None:
            if (values.shape[1:] != (order + 1, *descriptor.shape)
                    or len(values) != len(times)):
                raise ShapeMismatchError(f"flow values of shape {values.shape} do not match "
                                         f"{len(times)} nodes of order {order}")
            values.setflags(write=False)
        times.setflags(write=False)
        if coefficients is not None:
            coefficients = tuple(coefficients)
            if len(coefficients) != order + 1:
                raise ShapeMismatchError(f"{len(coefficients)} coefficient stacks for "
                                         f"order {order}")
            for stack in coefficients:
                if stack.shape[1:] != descriptor.shape:
                    raise ShapeMismatchError(f"a coefficient stack of shape {stack.shape} "
                                             f"is not a stack of {descriptor.shape} payloads")
                stack.setflags(write=False)
        for name, value in (("times", times), ("_values", values), ("descriptor", descriptor),
                            ("step", step), ("order", order), ("q0", q0),
                            ("coefficients", coefficients)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            values = _sample_grades(self.coefficients, self.descriptor, self.times)
            values.setflags(write=False)
            object.__setattr__(self, "_values", values)
        return self._values

    @property
    def series(self) -> "SeriesView":
        return SeriesView(self.descriptor, self.values)

    def __len__(self) -> int:
        return len(self.times)


class SeriesView(Sequence):
    """The nodes of a stacked sample as :class:`GradedSeries`, built on access."""

    __slots__ = ("descriptor", "values")

    def __init__(self, descriptor: AlgebraDescriptor, values: np.ndarray):
        self.descriptor = descriptor
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[k] for k in range(*index.indices(len(self))))
        return GradedSeries.from_values(self.descriptor, self.values[index])


def _check_scaling(q0: float) -> None:
    if not 0.0 < q0 <= 1.0:
        raise DomainError(f"scaling parameter must lie in (0, 1], got {q0}")


def _expand_grid(grid) -> tuple[float, float, int]:
    step, horizon = grid
    step = float(step)
    horizon = float(horizon)
    if not (math.isfinite(step) and math.isfinite(horizon)):
        raise DomainError("grid step and horizon must be finite")
    if step <= 0.0:
        raise DomainError("grid step must be positive")
    if horizon < step:
        raise DomainError("grid horizon must cover at least one step")
    count = horizon / step
    if not math.isfinite(count):
        raise DomainError("grid step is too small for its horizon")
    steps = round(count)
    if abs(count - steps) > 1e-9 * max(1.0, steps):
        raise DomainError("grid horizon must be a whole number of steps")
    return step, horizon, int(steps)


@dataclass(frozen=True)
class LaxProblem:
    """A Lax flow instance: initial element, driving path, scaling, truncation, grid.
    Building one checks every field, and caps the most bytes one solve holds at once
    (:func:`_solve_bytes`) at ``MAX_FLOW_BYTES``, before anything is allocated."""

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
        nbytes = _solve_bytes(self.path.descriptor, self.path.degree, self.order,
                              _expand_grid(self.grid)[2])
        if nbytes > MAX_FLOW_BYTES:
            raise DomainError(f"the flow's nodes and product stack exceed {MAX_FLOW_BYTES} bytes")


def _solve_bytes(descriptor: AlgebraDescriptor, degree: int, order: int, steps: int) -> int:
    """The most bytes that a solve of order ``order`` on ``steps + 1`` nodes, driven by a
    path of degree ``degree``, holds at once, counted without allocating anything.

    The count adds: the group and the flow, on the nodes and as polynomials; the larger
    of the top grade's stacks in the conjugation and in the recurrence; the power table
    of the sampler; and one block of the product kernel.
    """
    d, n = degree, order
    size = math.prod(descriptor.shape)
    payload = size * descriptor.dtype.itemsize
    samples = 2 * (steps + 1) * (n + 1)
    polynomials = 2 * (n + 1 + d * n * (n + 1) // 2)
    # sum_(i=1..n) ((n - i) d + 1)(i d + 1) pairs of an L_(n-i) and a g_i coefficient,
    # each with both factors, the product, its flat indices and a temporary of them,
    # and eight indices of its own (one call per factor grade gathers its own factors, so
    # the calls' products and their join take no more than both factors did)
    conjugation = (d * d * (n ** 3 - n) // 6 + n * (n * d + 1)) * (3 * payload + 16 * size + 64)
    # (d + 1)((n - 1) d + 1) pairs in a commutator's two products and their difference,
    # and the kernel's copies of both broadcast factors on diffops
    recurrence = 5 * (d + 1) * ((n - 1) * d + 1) * payload
    table = 8 * steps * (n * (d + 1) + 1)
    return ((samples + polynomials) * payload + max(conjugation, recurrence) + table
            + kernel_block_bytes(descriptor))


def _scaled_generators(path: OperatorPath, q0: float, horizon: float) -> np.ndarray:
    """The coefficients of ``P(q0 t)`` in ``s = t/T``: ``(q0 T)^e P_e``, as a column stack."""
    return np.stack([(q0 * horizon) ** e * c.data for e, c in enumerate(path.coeffs)])[:, None]


def _driven(produce, generators: np.ndarray, grade: np.ndarray,
            descriptor: AlgebraDescriptor) -> np.ndarray:
    """The coefficients of ``produce(P(q0 t), X)`` in ``s``, with ``X``'s stack ``grade``:
    entry ``m`` is ``sum_(e + j = m) produce(generators[e], grade[j])``, from one call."""
    products = produce(generators, grade[None])
    coeffs = np.zeros((len(grade) + len(generators) - 1, *descriptor.shape),
                      dtype=descriptor.dtype)
    for e, product in enumerate(products):
        coeffs[e:e + len(product)] += product
    return coeffs


def _grade_polynomials(produce, problem: LaxProblem) -> list[np.ndarray]:
    """The exact solution of ``X_i' = produce(P(q0 t), X_{i-1})`` as polynomials in ``s = t/T``.

    ``X_0 = problem.initial`` and ``X_i(0) = 0`` for ``i >= 1``.  With ``P(t) =
    sum_e P_e t^e`` of degree ``d``, grade ``i`` is a polynomial of degree
    ``i (d + 1)`` with no terms below ``t^i``, whose coefficients ``D[i, k] =
    C[i, k] T^k`` in ``s`` follow from ``D[0, 0] = initial`` by

        D[i, k] = (T/k) sum_(e + j = k - 1) produce((q0 T)^e P_e, D[i-1, j]):

    one ``produce`` call per grade over every pair ``(P_e, D[i-1, j])``.  Entry
    ``i`` of the result is the stack ``D[i, i..i (d + 1)]``.
    """
    horizon = _expand_grid(problem.grid)[1]
    descriptor = problem.path.descriptor
    generators = _scaled_generators(problem.path, problem.q0, horizon)
    grades = [problem.initial.data[None]]
    for i in range(1, problem.order + 1):
        coeffs = _driven(produce, generators, grades[-1], descriptor)
        coeffs *= (horizon / np.arange(i, i + len(coeffs)))[:, None, None]
        grades.append(coeffs)
    return grades


def _checked_polynomials(sample: "FlowSample", degree: int) -> tuple[np.ndarray, ...]:
    """``sample.coefficients``, checked to hold grade ``i`` of a degree-``degree`` path's
    flow in ``i degree + 1`` coefficients."""
    if sample.coefficients is None:
        raise DomainError("the check needs the sample's polynomial coefficients")
    for i, grade in enumerate(sample.coefficients):
        if len(grade) != i * degree + 1:
            raise ShapeMismatchError(f"grade {i} holds {len(grade)} coefficients, not the "
                                     f"{i * degree + 1} of a degree-{degree} path")
    return sample.coefficients


def _residual_polynomials(produce, sample: "FlowSample", path: OperatorPath,
                          q0: float) -> list[np.ndarray]:
    """The residuals ``R_i = X_i' - produce(P(q0 t), X_{i-1})`` of a sample's polynomials.

    In ``s = t/T``, ``T = times[-1]``, with ``D`` the sample's coefficients (see
    :func:`_grade_polynomials`), ``R_i`` has the coefficient

        (k/T) D[i, k] - sum_(e + j = k - 1) produce((q0 T)^e P_e, D[i-1, j])

    at ``s^(k - 1)``: one ``produce`` call per grade, none per node.  Entry ``i >= 1``
    is the stack of the coefficients of ``s^(i - 1) .. s^(i (d + 1) - 1)``; entry 0,
    the derivative of a constant, holds none.
    """
    grades = _checked_polynomials(sample, path.degree)
    horizon = sample.times[-1]
    generators = _scaled_generators(path, q0, horizon)
    residuals = [grades[0][:0]]
    for i in range(1, len(grades)):
        derivative = grades[i] * (np.arange(i, i + len(grades[i])) / horizon)[:, None, None]
        residuals.append(derivative - _driven(produce, generators, grades[i - 1],
                                              sample.descriptor))
    return residuals


def coefficient_bounds(descriptor: AlgebraDescriptor, grades) -> np.ndarray:
    """Per grade, ``sum_k ||c_k||`` over the coefficients ``c_k`` in ``s = t/T`` of stacks
    laid out as a :class:`FlowSample`'s ``coefficients`` (a grade with none reads 0).
    Since ``0 <= s <= 1``, it bounds the grade's norm on all of ``[0, T]``, with no node."""
    return np.array([element_norms(descriptor, grade).sum() for grade in grades])


def _sample_grades(grades, descriptor: AlgebraDescriptor, times: np.ndarray) -> np.ndarray:
    """The values on ``times`` of the grade polynomials ``grades`` (see :class:`FlowSample`).

    Node ``k`` of grade ``i`` is ``sum_j grades[i][j] s_k^(i + j)`` with ``s_k =
    times[k] / times[-1]``: one table of the powers of ``s`` on the nodes after
    ``t = 0``, where every grade above 0 is zero, and one matrix product per grade
    written in place into the sample.  The product is ``np.einsum``'s loop, not
    BLAS: ``matmul`` here brings in a real-valued BLAS kernel that a diffop solve
    otherwise never runs, and raised its peak RSS by 0.3-0.4 MiB.  A complex stack
    is multiplied as pairs of real numbers, so the real table never becomes
    complex.
    """
    order = len(grades) - 1
    values = np.zeros((len(times), order + 1, *descriptor.shape), dtype=descriptor.dtype)
    values[:, 0] = grades[0][0]
    powers = (times[1:] / times[-1])[:, None] ** np.arange(len(grades[-1]) + order)
    real = values.view(np.float64).reshape(len(times), order + 1, -1)
    for i in range(1, order + 1):
        stack = grades[i].view(np.float64).reshape(len(grades[i]), -1)
        np.einsum("nk,kf->nf", powers[:, i:i + len(stack)], stack, out=real[1:, i])
    return values


def _integrate_polynomial(produce, problem: LaxProblem) -> FlowSample:
    """:func:`_grade_polynomials` on the grid's nodes, sampled when first read."""
    step, horizon, steps = _expand_grid(problem.grid)
    return FlowSample(np.linspace(0.0, horizon, steps + 1), None, problem.path.descriptor,
                      step=step, order=problem.order, q0=problem.q0,
                      coefficients=_grade_polynomials(produce, problem))


def time_ordered_exp(path: OperatorPath, q0: float, order: int, grid) -> FlowSample:
    """Grade-by-grade time-ordered exponential of the scaled path.

    Computing with a larger truncation order never changes the shared lower
    grades: grade ``i`` only ever reads grades below it.
    """
    descriptor = path.descriptor
    problem = LaxProblem(AlgebraElement.one(descriptor), path, q0, order, grid)
    return _integrate_polynomial(lambda p, x: stacked_product(descriptor, p, x), problem)


def left_log_derivative_residual(group: FlowSample, path: OperatorPath,
                                 q0: float) -> np.ndarray:
    """Per-grade bound on ``[0, T]`` of the residual ``g_i' - P(q0 t) g_(i-1)`` of ``d/dt
    g = q P(q0 t) g``, from the group's polynomials (:func:`coefficient_bounds`).

    A unit-headed ``g`` is invertible, so the residual vanishes exactly when ``(d/dt
    g) g^(-1) = q P(q0 t)``.  The derivative is exact, so the floor is roundoff.  A
    sample with no polynomial coefficients is a :class:`DomainError`.
    """
    descriptor = group.descriptor
    return coefficient_bounds(descriptor, _residual_polynomials(
        lambda p, x: stacked_product(descriptor, p, x), group, path, q0))
