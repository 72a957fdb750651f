"""Time-ordered exponentials of scaled operator paths.

For a polynomial path ``t -> P(t)`` and a scaling parameter ``q0 in (0, 1]``,
the scaled path ``t -> q P(q t)`` has a time-ordered exponential whose
grade-``i`` coefficient is the iterated simplex integral of ``i`` path factors.
Those coefficients solve the triangular linear system

    A_0(t) = 1,    A_i'(t) = P(q0 t) A_{i-1}(t),    A_i(0) = 0  (i >= 1),

whose grades are polynomials in ``t``: this module computes them exactly, by
one product call per grade, and evaluates them on the grid's nodes, whose
spacing is all the grid's step sets.  The grade marker stays formal:
coefficients carry the numeric parameter ``q0`` only inside the integrand
``P(q0 s)``, and each grade-``i`` coefficient is the weight of ``q^i`` in the
group series.  A sampled path is kept as one ``(nodes, N+1, *shape)`` array
(:class:`FlowSample`).  Every integration takes a :class:`LaxProblem`, whose
construction is the one check of its inputs.
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
    stacked_product,
)
from qlax.series import GradedSeries, centred_residual, right_divide

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
    ROADMAP.md open item 3, since the frozen benchmark passes ``q0``
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

    def scaled(self, q0: float) -> "OperatorPath":
        """The path ``t -> q0 * P(q0 t)``: coefficient ``d`` picks up ``q0^(d+1)``."""
        _check_scaling(q0)
        factors = [q0 ** (d + 1) for d in range(self.degree + 1)]
        return OperatorPath(tuple(f * c for f, c in zip(factors, self.coeffs)), q0, self.name)


class FlowSample:
    """A series-valued path sampled on a uniform time grid.

    The whole sample is one read-only ``(nodes, order + 1, *shape)`` array,
    ``values``, of coefficients in the algebra ``descriptor``; ``series``
    shows its nodes as :class:`GradedSeries`.
    """

    __slots__ = ("times", "values", "descriptor", "step", "order", "q0")

    def __init__(self, times, values: np.ndarray, descriptor: AlgebraDescriptor, *,
                 step: float, order: int, q0: float):
        if values.shape[1:] != (order + 1, *descriptor.shape) or len(values) != len(times):
            raise ShapeMismatchError(f"flow values of shape {values.shape} do not match "
                                     f"{len(times)} nodes of order {order}")
        values.setflags(write=False)
        for name, value in (("times", times), ("values", values), ("descriptor", descriptor),
                            ("step", step), ("order", order), ("q0", q0)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def series(self) -> "SeriesView":
        return SeriesView(self.descriptor, self.values)

    def __len__(self) -> int:
        return len(self.values)


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
    Building one checks every field, and caps the nodes plus the integrator's largest
    product stack at ``MAX_FLOW_BYTES``, before anything is allocated."""

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
        steps = _expand_grid(self.grid)[2]
        degree = self.path.degree
        payloads = (steps + 1) * (self.order + 1) + (degree + 1) * ((self.order - 1) * degree + 1)
        if payloads * self.initial.data.nbytes > MAX_FLOW_BYTES:
            raise DomainError(f"the flow's nodes and product stack exceed {MAX_FLOW_BYTES} bytes")


def _integrate_polynomial(produce, problem: LaxProblem) -> FlowSample:
    """The exact solution of ``X_i' = produce(P(q0 t), X_{i-1})`` on the grid's nodes.

    ``X_0 = problem.initial`` and ``X_i(0) = 0`` for ``i >= 1``.  With ``P(t) =
    sum_e P_e t^e`` of degree ``d``, grade ``i`` is a polynomial of degree
    ``i (d + 1)`` with no terms below ``t^i``, whose coefficients ``D[i, k] =
    C[i, k] T^k`` in ``s = t/T`` follow from ``D[0, 0] = initial`` by

        D[i, k] = (T/k) sum_(e + j = k - 1) produce((q0 T)^e P_e, D[i-1, j]):

    one ``produce`` call per grade over every pair ``(P_e, D[i-1, j])``.  Horner's
    rule in ``s`` writes each grade in place on the nodes after ``t = 0``, where
    every grade above 0 is zero.
    """
    path, order = problem.path, problem.order
    step, horizon, steps = _expand_grid(problem.grid)
    descriptor = path.descriptor
    times = np.linspace(0.0, horizon, steps + 1)
    fractions = (times[1:] / horizon)[:, None, None]
    generators = np.stack([(problem.q0 * horizon) ** e * c.data
                           for e, c in enumerate(path.coeffs)])[:, None]
    values = np.zeros((steps + 1, order + 1, *descriptor.shape), dtype=descriptor.dtype)
    values[:, 0] = problem.initial.data
    coeffs = problem.initial.data[None]  # D[i, i:], from grade 0
    for i in range(1, order + 1):
        products = produce(generators, coeffs[None])
        coeffs = np.zeros((len(coeffs) + path.degree, *descriptor.shape), dtype=descriptor.dtype)
        for e, product in enumerate(products):
            coeffs[e:e + len(product)] += product
        coeffs *= (horizon / np.arange(i, i + len(coeffs)))[:, None, None]
        grade = values[1:, i]  # zero until Horner's first step adds the top coefficient
        for c in coeffs[::-1]:
            grade *= fractions
            grade += c
        grade *= fractions ** i
    return FlowSample(times, values, descriptor, step=step, order=order, q0=problem.q0)


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
    """Per-grade residual of ``(d/dt g) g^(-1) = q P(q0 t)`` on interior nodes.

    ``(d/dt g) g^(-1)`` is ``series.right_divide``; ``d/dt`` is a centred difference
    with the grid step, so the profile adds an O(step^2) floor to the integration error.
    """
    def residual(inner, derivative):
        gap = right_divide(group.descriptor, derivative, group.values[inner])
        gap[:, 1] -= path.sample(q0 * group.times[inner])
        return gap

    return centred_residual(group.descriptor, group.values, group.step, residual)
