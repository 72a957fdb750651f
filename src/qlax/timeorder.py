"""Time-ordered exponentials of scaled operator paths.

For a smooth path ``t -> P(t)`` and a scaling parameter ``q0 in (0, 1]``, the
scaled path ``t -> q P(q t)`` has a time-ordered exponential whose grade-``i``
coefficient is the iterated simplex integral of ``i`` path factors.  Those
coefficients solve the triangular linear system

    A_0(t) = 1,    A_i'(t) = P(q0 t) A_{i-1}(t),    A_i(0) = 0  (i >= 1),

which this module integrates with the classical fixed-step RK4 scheme.  The
grade marker stays formal: coefficients carry the numeric parameter ``q0``
only inside the integrand ``P(q0 s)``, and each grade-``i`` coefficient is the
weight of ``q^i`` in the group series.

Since no grade feeds back into itself, RK4 integrates the chain one node
block at a time and, within a block, one grade at a time: each stage of a
grade is one product over all the block's steps, and the grade's nodes are
the running sum of its step increments.  A sampled path is kept as one
``(nodes, N+1, *shape)`` array (:class:`FlowSample`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from qlax.algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    DomainError,
    ShapeMismatchError,
    blocks,
    stacked_product,
)
from qlax.series import GradedSeries, centred_residual, right_divide

MAX_PATH_DEGREE = 8


@dataclass(frozen=True)
class OperatorPath:
    """A polynomial path ``P(t) = sum_d coeffs[d] t^d`` in one coefficient algebra.

    ``q0`` is carried but unused: every integration routine takes the scaling
    parameter explicitly, and :func:`~qlax.symmetry.ad_path` only forwards it.
    Its removal is pending (ROADMAP.md, "Delete duplicate work").
    """

    coeffs: tuple[AlgebraElement, ...]
    q0: float = 1.0
    name: str | None = None

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

    @classmethod
    def zero(cls, descriptor: AlgebraDescriptor, q0: float = 1.0) -> "OperatorPath":
        return cls((AlgebraElement.zero(descriptor),), q0)

    @property
    def descriptor(self) -> AlgebraDescriptor:
        return self.coeffs[0].descriptor

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def at(self, t: float) -> AlgebraElement:
        """Evaluate the polynomial path (Horner form)."""
        acc = self.coeffs[-1]
        for d in range(self.degree - 1, -1, -1):
            acc = self.coeffs[d] + t * acc
        return acc

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Payloads of ``at(t)`` for every ``t`` in ``times``, as one stack."""
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
    if step <= 0.0:
        raise DomainError("grid step must be positive")
    if horizon < step:
        raise DomainError("grid horizon must cover at least one step")
    count = horizon / step
    steps = round(count)
    if abs(count - steps) > 1e-9 * max(1.0, steps):
        raise DomainError("grid horizon must be a whole number of steps")
    return step, horizon, int(steps)


def _integrate_chain(produce, path: OperatorPath, q0: float, base: AlgebraElement,
                     order: int, grid) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for the triangular system ``X_i' = produce(P(q0 t), X_{i-1})``.

    ``X_0 = base`` is constant and ``X_i(0) = 0`` for ``i >= 1``.  No grade
    feeds back into itself, so each node block is integrated grade by grade:
    each RK4 stage of grade ``i`` is one call ``produce(p, x)`` on the block's
    ``(steps, *shape)`` stack of path samples and grade ``i - 1``'s stage
    inputs (``base`` itself for grade 1).  The grade's nodes are the sequential
    sums ``X_{k+1} = X_k + delta_k`` of its step increments (``np.cumsum``),
    started from the node carried over from the previous block, so each node
    gets the sum a step-by-step loop forms.  Returns the node times and the
    ``(nodes, order + 1, *shape)`` array of series ``(base, X_1, ..., X_order)``.
    """
    if order < 1:
        raise DomainError("truncation order must be >= 1")
    _check_scaling(q0)
    if path.descriptor != base.descriptor:
        raise ShapeMismatchError("path and base element live in different algebras")
    step, horizon, steps = _expand_grid(grid)
    descriptor = base.descriptor
    times = np.linspace(0.0, horizon, steps + 1)
    half = 0.5 * step
    sixth = step / 6.0
    values = np.zeros((steps + 1, order + 1, *descriptor.shape), dtype=descriptor.dtype)
    values[:, 0] = base.data
    for block in blocks(steps, values[0].nbytes):
        # P(q0 t) at the start, midpoint and end of every step
        start, middle, end = (path.sample(q0 * (times[block] + shift))
                              for shift in (0.0, half, step))
        samples = start, middle, middle, end
        nodes = slice(block.start, block.stop + 1)
        inputs = (base.data,) * 4
        for i in range(1, order + 1):
            k1, k2, k3, k4 = (produce(p, x) for p, x in zip(samples, inputs))
            deltas = sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            values[nodes, i] = np.cumsum(np.concatenate((values[block.start, i][None], deltas)),
                                         axis=0)
            x = values[block, i]
            inputs = x, x + half * k1, x + half * k2, x + step * k3
    return times, values


def time_ordered_exp(path: OperatorPath, q0: float, order: int, grid) -> FlowSample:
    """Grade-by-grade time-ordered exponential of the scaled path.

    Computing with a larger truncation order never changes the shared lower
    grades: grade ``i`` only ever reads grades below it.
    """
    descriptor = path.descriptor
    base = AlgebraElement.one(descriptor)
    times, values = _integrate_chain(lambda p, x: stacked_product(descriptor, p, x),
                                     path, q0, base, order, grid)
    return FlowSample(times=times, values=values, descriptor=descriptor,
                      step=float(grid[0]), order=order, q0=q0)


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
