"""Truncated formal series ``sum_n q^n a_n`` with noncommutative coefficients.

A :class:`GradedSeries` of order ``N`` keeps coefficients for grades
``0..N``; every operation works modulo ``q^(N+1)``.  The grade marker ``q``
is formal: coefficients may themselves depend on a numeric scaling parameter,
and :meth:`GradedSeries.evaluate` substitutes a number for the marker.

On series with invertible structure the usual group maps are exact finite
sums here:

* ``exp(S) = sum_{k<=N} S^k / k!`` for valuation >= 1,
* ``log(U) = sum_{k<=N} (-1)^(k+1) (U-1)^k / k`` for unit grade-0,
* ``x U^(-1)`` by forward substitution (:func:`right_divide`) for unit grade-0,
* ``unit_inverse`` extends inversion to any invertible grade-0 coefficient
  on the matrix backend via ``U = a_0 (1 + a_0^(-1) S)``.

The products, the right division and evaluation are kernels on stacked
series: ``(nodes, N+1, *shape)`` arrays holding one series per node, so a
sampled flow is multiplied, divided or evaluated in one pass.  A
:class:`GradedSeries` is one read-only ``(N+1, *shape)`` array, and its
arithmetic is array operations and the one-node case of the same kernels.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from qlax.algebra import (
    MATRIX,
    AlgebraDescriptor,
    AlgebraElement,
    CapabilityError,
    DomainError,
    ShapeMismatchError,
    blocks,
    coerce_scalar,
    element_norms,
    stacked_product,
    unit_payload,
)


def _nonzero_grades(values: np.ndarray) -> np.ndarray:
    return values.reshape(*values.shape[:2], -1).any(axis=-1)


def graded_product(a: np.ndarray, b: np.ndarray, multiply) -> np.ndarray:
    """Truncated Cauchy product ``c_n = sum_{i+j=n} a_i b_j`` of stacked series.

    ``a`` and ``b`` are ``(nodes, N+1, ...)`` arrays; either may hold one node,
    which then pairs with every node of the other.  ``multiply(x, y, mask)``
    multiplies the stack ``x`` of shape ``(nodes, 1, ...)`` into the grades
    ``y`` of shape ``(nodes, k, ...)``; ``mask`` flags the pairs whose factors
    are both nonzero.  The result has ``b``'s coefficient shape.

    Terms are added with ``i`` ascending, and a pair with a zero factor on a
    node adds nothing (a complex product of zero with a nonzero factor can be
    ``-0.0``, which would change zero signs); a coefficient that no pair
    reaches is ``+0.0``.
    """
    order = a.shape[1] - 1
    nodes = max(a.shape[0], b.shape[0])
    out = np.zeros((nodes, order + 1, *b.shape[2:]), dtype=np.result_type(a, b))
    nonzero_a = _nonzero_grades(a)
    nonzero_b = _nonzero_grades(b)
    used_b = np.flatnonzero(nonzero_b.any(axis=0))
    if not used_b.size:
        return out
    # grades of b outside [low, top) are zero on every node: no pair uses them
    low, top = int(used_b[0]), int(used_b[-1]) + 1
    # every sum starts at -0.0 (in both parts of a complex), the exact additive
    # identity, so its first term keeps its bits
    np.negative(out, out=out)
    touched = np.zeros((nodes, order + 1), dtype=bool)
    for i in range(order + 1 - low):
        if not nonzero_a[:, i].any():
            continue
        width = min(order + 1 - i, top) - low
        grades = slice(low, low + width)
        mask = np.broadcast_to(nonzero_a[:, i, None] & nonzero_b[:, grades], (nodes, width))
        term = multiply(a[:, i, None], b[:, grades], mask)
        region = out[:, i + low:i + low + width]
        if mask.all():
            region += term
        else:
            region[mask] += term[mask]
        touched[:, i + low:i + low + width] |= mask
    out[~touched] = 0.0
    return out


def cauchy_product(descriptor: AlgebraDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`graded_product` of stacked series over one coefficient algebra.

    Diffop pairs with a zero factor are never multiplied, exactly as for a
    single series.
    """
    return graded_product(a, b, lambda x, y, mask: stacked_product(descriptor, x, y, mask))


def right_divide(descriptor: AlgebraDescriptor, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``y = x g^(-1)`` for a unit-headed ``g`` (``x``'s nodes or one), by forward substitution
    ``y_n = x_n - sum_{i=1..n} y_{n-i} g_i``: one masked ``stacked_product`` call per grade,
    terms in ascending ``i``, pairs with a zero factor skipped as in :func:`graded_product`."""
    if not (g[:, 0] == unit_payload(descriptor)).all():
        raise DomainError("grade-0 coefficient must equal the unit")
    y = x.astype(np.result_type(x, g))
    nonzero_g = _nonzero_grades(g)
    nonzero_y = _nonzero_grades(y)
    for n in range(1, y.shape[1]):
        mask = nonzero_y[:, n - 1::-1] & nonzero_g[:, 1:n + 1]
        term = stacked_product(descriptor, y[:, n - 1::-1], g[:, 1:n + 1], mask)
        for i in range(n):
            used = slice(None) if mask[:, i].all() else mask[:, i]
            y[used, n] -= term[used, i]
        nonzero_y[:, n] = _nonzero_grades(y[:, n:n + 1])[:, 0]
    return y


def evaluate_values(descriptor: AlgebraDescriptor, values: np.ndarray, q0) -> np.ndarray:
    """Substitute ``q0`` for the grade marker on every node (Horner form)."""
    q0 = coerce_scalar(descriptor, q0)
    acc = values[:, -1]
    for n in range(values.shape[1] - 2, -1, -1):
        acc = values[:, n] + q0 * acc
    return acc


def grade_max_norms(descriptor: AlgebraDescriptor, values: np.ndarray, gaps) -> np.ndarray:
    """Per-grade max norm of ``gaps(block)`` over the node blocks of a stacked series.

    ``gaps`` maps a slice of the nodes of ``values`` to the stack to measure,
    so one block of it is held at a time.
    """
    worst = np.zeros(values.shape[1])
    for block in blocks(len(values), values[0].nbytes):
        worst = np.maximum(worst, element_norms(descriptor, gaps(block)).max(axis=0))
    return worst


class GradedSeries:
    """Immutable truncated series: one read-only ``(N+1, *shape)`` array ``values``
    whose entry ``n`` is the payload of the grade-``n`` coefficient in ``descriptor``.

    ``coeffs`` shows the grades as :class:`AlgebraElement`, built on access.
    """

    __slots__ = ("descriptor", "values")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ShapeMismatchError("a graded series needs at least the grade-0 coefficient")
        descriptor = coeffs[0].descriptor
        for c in coeffs[1:]:
            if c.descriptor != descriptor:
                raise ShapeMismatchError("series coefficients live in different algebras")
        self._hold(descriptor, np.stack([c.data for c in coeffs]))

    def _hold(self, descriptor: AlgebraDescriptor, values: np.ndarray) -> None:
        values.setflags(write=False)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GradedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_values(cls, descriptor: AlgebraDescriptor, values) -> "GradedSeries":
        """The series whose grade-``n`` coefficient has payload ``values[n]`` (a copy)."""
        values = np.array(values, dtype=descriptor.dtype)
        if values.shape[1:] != descriptor.shape or not len(values):
            raise ShapeMismatchError(f"series values of shape {values.shape} do not hold "
                                     f"coefficients of shape {descriptor.shape}")
        series = object.__new__(cls)
        series._hold(descriptor, values)
        return series

    @classmethod
    def zero(cls, descriptor: AlgebraDescriptor, order: int) -> "GradedSeries":
        return cls.single(descriptor, order, 0, AlgebraElement.zero(descriptor))

    @classmethod
    def unit(cls, descriptor: AlgebraDescriptor, order: int) -> "GradedSeries":
        return cls.single(descriptor, order, 0, AlgebraElement.one(descriptor))

    @classmethod
    def single(cls, descriptor: AlgebraDescriptor, order: int, grade: int,
               element: AlgebraElement) -> "GradedSeries":
        """The series ``q^grade * element`` truncated at ``order``."""
        if not 0 <= grade <= order:
            raise DomainError(f"grade {grade} outside 0..{order}")
        if element.descriptor != descriptor:
            raise ShapeMismatchError("element does not match the series descriptor")
        values = np.zeros((order + 1, *descriptor.shape), dtype=descriptor.dtype)
        values[grade] = element.data
        return cls.from_values(descriptor, values)

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.values) - 1

    @property
    def coeffs(self) -> tuple[AlgebraElement, ...]:
        return tuple(AlgebraElement(self.descriptor, v) for v in self.values)

    def valuation(self):
        """Least grade with a nonzero coefficient; ``math.inf`` for the zero series."""
        grades = np.flatnonzero(_nonzero_grades(self.values[None])[0])
        return int(grades[0]) if grades.size else math.inf

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.descriptor == other.descriptor and np.array_equal(self.values, other.values)

    __hash__ = None

    def __repr__(self) -> str:
        return f"<GradedSeries order={self.order} valuation={self.valuation()}>"

    def _check_compatible(self, other: "GradedSeries") -> None:
        if self.descriptor != other.descriptor:
            raise ShapeMismatchError("series live in different algebras")
        if self.order != other.order:
            raise ShapeMismatchError(
                f"truncation orders differ: {self.order} vs {other.order}")

    def _like(self, values: np.ndarray) -> "GradedSeries":
        return GradedSeries.from_values(self.descriptor, values)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._like(self.values + other.values)

    def __sub__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._like(self.values - other.values)

    def __neg__(self):
        return self._like(-self.values)

    def __mul__(self, other):
        if isinstance(other, GradedSeries):
            self._check_compatible(other)
            return self._like(cauchy_product(self.descriptor, self.values[None],
                                             other.values[None])[0])
        return self.__rmul__(other)

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self._like(self.values * coerce_scalar(self.descriptor, other))
        return NotImplemented

    # -- group maps --------------------------------------------------------

    def exp(self) -> "GradedSeries":
        """``sum_{k<=N} S^k / k!``; requires valuation >= 1 so the sum is finite."""
        if self.values[0].any():
            raise DomainError("exp needs valuation >= 1 (zero grade-0 coefficient)")
        acc = GradedSeries.unit(self.descriptor, self.order)
        term = acc
        for k in range(1, self.order + 1):
            term = (term * self) * (1.0 / k)
            acc = acc + term
        return acc

    def log(self) -> "GradedSeries":
        """``sum_{k<=N} (-1)^(k+1) (U-1)^k / k``; requires unit grade-0 coefficient."""
        power = GradedSeries.unit(self.descriptor, self.order)
        if not np.array_equal(self.values[0], power.values[0]):
            raise DomainError("grade-0 coefficient must equal the unit")
        offset = self - power
        acc = GradedSeries.zero(self.descriptor, self.order)
        for k in range(1, self.order + 1):
            power = power * offset
            acc = acc + power * ((-1.0) ** (k + 1) / k)
        return acc

    def inverse(self) -> "GradedSeries":
        """``U^(-1)`` by forward substitution (:func:`right_divide`); requires unit grade-0."""
        unit = GradedSeries.unit(self.descriptor, self.order).values[None]
        return self._like(right_divide(self.descriptor, unit, self.values[None])[0])

    def unit_inverse(self) -> "GradedSeries":
        """Inverse for an invertible grade-0 coefficient (matrix backend).

        Writes ``U = a_0 (1 + a_0^(-1) S)`` and inverts the unit-headed factor
        by forward substitution; a singular ``a_0`` is a domain error.
        """
        if self.descriptor.backend != MATRIX:
            raise CapabilityError("unit_inverse needs the matrix backend (dense solve)")
        eye = np.eye(self.descriptor.n, dtype=self.descriptor.dtype)
        try:
            a0_inv = np.linalg.solve(self.values[0], eye)
        except np.linalg.LinAlgError as exc:
            raise DomainError("grade-0 coefficient is singular") from exc
        headed = self._like(np.concatenate((eye[None], a0_inv @ self.values[1:])))
        return self._like(headed.inverse().values @ a0_inv)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, q0: float) -> AlgebraElement:
        """Substitute the number ``q0`` for the grade marker (Horner form)."""
        return AlgebraElement(self.descriptor,
                              evaluate_values(self.descriptor, self.values[None], q0)[0])
