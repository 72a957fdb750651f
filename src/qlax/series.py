"""Truncated formal series ``sum_n q^n a_n`` with noncommutative coefficients.

A :class:`GradedSeries` of order ``N`` keeps coefficients for grades
``0..N``; every operation works modulo ``q^(N+1)``.  The grade marker ``q``
is formal: coefficients may themselves depend on a numeric scaling parameter,
and :meth:`GradedSeries.evaluate` substitutes a number for the marker.

On series with invertible structure the usual group maps are exact finite
sums here:

* ``exp(S) = sum_{k<=N} S^k / k!`` for valuation >= 1,
* ``log(U) = sum_{k<=N} (-1)^(k+1) (U-1)^k / k`` for unit grade-0,
* ``U^(-1) = sum_{k<=N} (-1)^k (U-1)^k`` (Neumann) for unit grade-0,
* ``unit_inverse`` extends inversion to any invertible grade-0 coefficient
  on the matrix backend via ``U = a_0 (1 + a_0^(-1) S)``.

The products, the Neumann inverse and evaluation are kernels on stacked
series: ``(nodes, N+1, *shape)`` arrays holding one series per node, so a
sampled flow is multiplied, inverted or evaluated in one pass.  A
:class:`GradedSeries` is the one-node case of the same kernels.
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

    Each node gets the bits of the one-series loop: terms are added with
    ``i`` ascending, each sum starts from its first term, and a pair with a
    zero factor on that node adds nothing (a complex product of zero with a
    nonzero factor can be ``-0.0``, which would change zero signs).
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
    started = np.zeros((nodes, order + 1), dtype=bool)
    for i in range(order + 1 - low):
        if not nonzero_a[:, i].any():
            continue
        width = min(order + 1 - i, top) - low
        grades = slice(low, low + width)
        mask = np.broadcast_to(nonzero_a[:, i, None] & nonzero_b[:, grades], (nodes, width))
        term = multiply(a[:, i, None], b[:, grades], mask)
        region = out[:, i + low:i + low + width]
        seen = started[:, i + low:i + low + width]
        added = mask & seen
        fresh = mask & ~seen
        if added.all():
            region += term
        elif fresh.all():
            region[...] = term
        else:
            region[added] += term[added]
            region[fresh] = term[fresh]
        seen |= mask
    return out


def cauchy_product(descriptor: AlgebraDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`graded_product` of stacked series over one coefficient algebra.

    Diffop pairs with a zero factor are never multiplied, exactly as for a
    single series.
    """
    return graded_product(a, b, lambda x, y, mask: stacked_product(descriptor, x, y, mask))


def neumann_inverse(descriptor: AlgebraDescriptor, values: np.ndarray) -> np.ndarray:
    """``sum_{k<=N} (-1)^k (U-1)^k`` for every node of a unit-headed stacked series."""
    unit = np.zeros((1, *values.shape[1:]), dtype=descriptor.dtype)
    unit[0, 0] = unit_payload(descriptor)
    if not (values[:, 0] == unit[0, 0]).all():
        raise DomainError("grade-0 coefficient must equal the unit")
    offset = values - unit
    acc = unit
    power = unit
    for k in range(1, values.shape[1]):
        power = cauchy_product(descriptor, power, offset)
        acc = acc + power * coerce_scalar(descriptor, (-1.0) ** k)
    return np.broadcast_to(acc, values.shape).copy()


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


def centred_residual(descriptor: AlgebraDescriptor, values: np.ndarray, step: float,
                     residual) -> np.ndarray:
    """:func:`grade_max_norms` of a flow-equation residual on the interior nodes.

    ``residual(inner, derivative)`` maps a slice of interior nodes and the
    centred differences there, which it may overwrite, to the stack to measure.
    """
    if len(values) < 3:
        raise DomainError("need at least three nodes for centred differences")
    inv_two_step = 1.0 / (2.0 * step)

    def gaps(block):
        derivative = (values[block.start + 2:block.stop + 2] - values[block]) * inv_two_step
        return residual(slice(block.start + 1, block.stop + 1), derivative)

    return grade_max_norms(descriptor, values[1:-1], gaps)


class GradedSeries:
    """Immutable truncated series; ``coeffs[n]`` is the grade-``n`` coefficient."""

    __slots__ = ("descriptor", "coeffs")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ShapeMismatchError("a graded series needs at least the grade-0 coefficient")
        descriptor = coeffs[0].descriptor
        for c in coeffs[1:]:
            if c.descriptor != descriptor:
                raise ShapeMismatchError("series coefficients live in different algebras")
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("GradedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, descriptor: AlgebraDescriptor, order: int) -> "GradedSeries":
        z = AlgebraElement.zero(descriptor)
        return cls([z] * (order + 1))

    @classmethod
    def unit(cls, descriptor: AlgebraDescriptor, order: int) -> "GradedSeries":
        z = AlgebraElement.zero(descriptor)
        return cls([AlgebraElement.one(descriptor)] + [z] * order)

    @classmethod
    def single(cls, descriptor: AlgebraDescriptor, order: int, grade: int,
               element: AlgebraElement) -> "GradedSeries":
        """The series ``q^grade * element`` truncated at ``order``."""
        if not 0 <= grade <= order:
            raise DomainError(f"grade {grade} outside 0..{order}")
        if element.descriptor != descriptor:
            raise ShapeMismatchError("element does not match the series descriptor")
        z = AlgebraElement.zero(descriptor)
        coeffs = [z] * (order + 1)
        coeffs[grade] = element
        return cls(coeffs)

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def valuation(self):
        """Least grade with a nonzero coefficient; ``math.inf`` for the zero series."""
        for n, c in enumerate(self.coeffs):
            if not c.is_zero:
                return n
        return math.inf

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<GradedSeries order={self.order} valuation={self.valuation()}>"

    @property
    def values(self) -> np.ndarray:
        """The coefficients as one ``(N+1, *shape)`` array."""
        return np.stack([c.data for c in self.coeffs])

    @classmethod
    def from_values(cls, descriptor: AlgebraDescriptor, values: np.ndarray) -> "GradedSeries":
        """The series whose grade-``n`` coefficient has payload ``values[n]``."""
        return cls([AlgebraElement(descriptor, v) for v in values])

    def _check_compatible(self, other: "GradedSeries") -> None:
        if self.descriptor != other.descriptor:
            raise ShapeMismatchError("series live in different algebras")
        if self.order != other.order:
            raise ShapeMismatchError(
                f"truncation orders differ: {self.order} vs {other.order}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check_compatible(other)
        return GradedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._check_compatible(other)
        return GradedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return GradedSeries([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, GradedSeries):
            self._check_compatible(other)
            return self._cauchy(other)
        if isinstance(other, numbers.Number):
            return GradedSeries([c * other for c in self.coeffs])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return GradedSeries([c * other for c in self.coeffs])
        return NotImplemented

    def _cauchy(self, other: "GradedSeries") -> "GradedSeries":
        product = cauchy_product(self.descriptor, self.values[None], other.values[None])
        return GradedSeries.from_values(self.descriptor, product[0])

    # -- group maps --------------------------------------------------------

    def exp(self) -> "GradedSeries":
        """``sum_{k<=N} S^k / k!``; requires valuation >= 1 so the sum is finite."""
        if not self.coeffs[0].is_zero:
            raise DomainError("exp needs valuation >= 1 (zero grade-0 coefficient)")
        acc = GradedSeries.unit(self.descriptor, self.order)
        term = acc
        for k in range(1, self.order + 1):
            term = (term * self) * (1.0 / k)
            acc = acc + term
        return acc

    def _unit_offset(self) -> "GradedSeries":
        one = AlgebraElement.one(self.descriptor)
        if self.coeffs[0] != one:
            raise DomainError("grade-0 coefficient must equal the unit")
        return self - GradedSeries.unit(self.descriptor, self.order)

    def log(self) -> "GradedSeries":
        """``sum_{k<=N} (-1)^(k+1) (U-1)^k / k``; requires unit grade-0 coefficient."""
        offset = self._unit_offset()
        acc = GradedSeries.zero(self.descriptor, self.order)
        power = GradedSeries.unit(self.descriptor, self.order)
        for k in range(1, self.order + 1):
            power = power * offset
            acc = acc + power * ((-1.0) ** (k + 1) / k)
        return acc

    def inverse(self) -> "GradedSeries":
        """Neumann inverse ``sum_{k<=N} (-1)^k (U-1)^k``; requires unit grade-0."""
        inverse = neumann_inverse(self.descriptor, self.values[None])
        return GradedSeries.from_values(self.descriptor, inverse[0])

    def unit_inverse(self) -> "GradedSeries":
        """Inverse for an invertible grade-0 coefficient (matrix backend).

        Writes ``U = a_0 (1 + a_0^(-1) S)`` and inverts the unit-headed factor
        with the Neumann sum; a singular ``a_0`` is a domain error.
        """
        if self.descriptor.backend != MATRIX:
            raise CapabilityError("unit_inverse needs the matrix backend (dense solve)")
        a0 = self.coeffs[0]
        eye = np.eye(self.descriptor.n, dtype=self.descriptor.dtype)
        try:
            a0_inv_data = np.linalg.solve(a0.data, eye)
        except np.linalg.LinAlgError as exc:
            raise DomainError("grade-0 coefficient is singular") from exc
        a0_inv = AlgebraElement(self.descriptor, a0_inv_data)
        unit = AlgebraElement.one(self.descriptor)
        headed = GradedSeries([unit] + [a0_inv * c for c in self.coeffs[1:]])
        return GradedSeries([c * a0_inv for c in headed.inverse().coeffs])

    # -- evaluation --------------------------------------------------------

    def evaluate(self, q0: float) -> AlgebraElement:
        """Substitute the number ``q0`` for the grade marker (Horner form)."""
        return AlgebraElement(self.descriptor,
                              evaluate_values(self.descriptor, self.values[None], q0)[0])
