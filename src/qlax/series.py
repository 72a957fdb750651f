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

The graded kernels work on a flow's polynomials in ``s = t/T``.
:func:`right_divide` takes them as a :class:`~qlax.timeorder.FlowSample`'s
``coefficients``, one stack per grade; :func:`dense` lays them out as one
``(grade, power, ...)`` array, and :func:`graded_product` multiplies two such
layouts, truncated in grade and power.  A :class:`GradedSeries`, one read-only
``(N+1, *shape)`` array, is the one-power case of both: ``values[:, None]``.
Both kernels add the terms of each coefficient in one fixed order
(:func:`summed`).  :func:`evaluated` sums those polynomials at a number for the grade
marker and evaluates the sum at points in ``s``.
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
    coerce_scalar,
    stacked_product,
    unit_payload,
)


def _nonzero(stack: np.ndarray) -> np.ndarray:
    """Flags the nonzero payloads of a stack, over its leading axes."""
    return stack.any(axis=(-2, -1))


def summed(products: np.ndarray, power: np.ndarray, length: int) -> np.ndarray:
    """``length`` sums, sum ``k`` of the ``products`` whose ``power`` is ``k``, in their
    order; a sum with a term starts at ``-0.0``, the exact additive identity, so its first
    term keeps its bits, and a sum with none is ``+0.0``."""
    size = math.prod(products.shape[1:])
    total = np.zeros((length, *products.shape[1:]), products.dtype)
    total[power] = np.negative(total[0])
    # one flat index per entry of each term, so that add.at adds them in order on its fast path
    np.add.at(total.reshape(-1), np.add.outer(power * size, np.arange(size)).ravel(),
              products.reshape(-1))
    return total


def dense(grades) -> np.ndarray:
    """Stacks laid out as a :class:`~qlax.timeorder.FlowSample`'s ``coefficients``, as one
    ``(grade, power of s, ...)`` array: grade ``i``'s stack fills the powers from ``i``."""
    layout = np.zeros((len(grades), len(grades[-1]) + len(grades) - 1, *grades[0].shape[1:]),
                      dtype=grades[-1].dtype)
    for i, grade in enumerate(grades):
        layout[i, i:i + len(grade)] = grade
    return layout


def graded_product(x: np.ndarray, y: np.ndarray, multiply) -> np.ndarray:
    """The product of two ``(grade, power, ...)`` layouts of one grade count and width,
    truncated at both: ``(n, p)`` sums ``multiply(x[i, a], y[n - i, b])`` over the nonzero
    factors with ``a + b = p``, in ``(i, a, b)`` order (:func:`summed`), from one
    ``multiply`` call.  A pair with a zero factor is skipped: a complex zero times a
    nonzero factor can be ``-0.0``, which would change zero signs.

    On :func:`dense` layouts it multiplies polynomials in ``s``; on a
    :class:`GradedSeries`' ``values[:, None]``, the one-power case, it is the Cauchy product.
    """
    order, width = x.shape[:2]
    i, a, j, b = np.nonzero(_nonzero(x)[:, :, None, None] & _nonzero(y)[None, None])
    kept = (i + j < order) & (a + b < width)
    i, a, j, b = i[kept], a[kept], j[kept], b[kept]
    total = summed(multiply(x[i, a], y[j, b]), (i + j) * width + a + b, order * width)
    return total.reshape(order, width, *total.shape[1:])


def right_divide(descriptor: AlgebraDescriptor, x, g) -> list[np.ndarray]:
    """``y = x g^(-1)`` for ``x`` and ``g`` laid out as a :class:`~qlax.timeorder.FlowSample`'s
    ``coefficients`` (grade ``i``'s ``k``-th coefficient is that of ``s^(i + k)``, and grade
    ``i`` holds ``i d + 1`` of them for some ``d``), each grade of ``x`` as long as ``g``'s,
    and ``g``'s grade 0 the unit alone.

    ``y g = x`` grade by grade is the forward substitution ``y_n = x_n - sum_(i=1..n)
    y_(n-i) * g_i``, where ``*`` multiplies two polynomials in ``s``, solved right-looking
    (Golub and Van Loan, *Matrix Computations*, section 3.1): as soon as grade ``k`` of
    ``y`` is final, one ``stacked_product`` call multiplies its nonzero coefficients
    ``y_k[a][:, None]`` by the nonzero coefficients ``g[b][None]`` of all of ``g_1 ..
    g_(N-k)``, each factor passed once, not once per pair.  The products are summed per
    coefficient of ``y_(k+1) .. y_N`` with ``a``, then ``b`` ascending (:func:`summed`) and
    subtracted from those grades in place, so grade ``n`` is ``x_n`` less the sums of ``k
    = 0, 1, .., n - 1`` in turn: at most ``N`` calls, and beside ``y`` the memory of one
    call's products.
    """
    lengths = [len(grade) for grade in g]
    if [len(grade) for grade in x] != lengths:
        raise ShapeMismatchError("the dividend's grades differ in length from the divisor's")
    if lengths[0] != 1 or not np.array_equal(g[0][0], unit_payload(descriptor)):
        raise DomainError("grade-0 coefficient must equal the unit")
    degree = lengths[1] - 1 if len(lengths) > 1 else 0
    if lengths != [1 + i * degree for i in range(len(lengths))]:
        raise ShapeMismatchError("grade i must hold i d + 1 coefficients for one d")
    starts = np.cumsum([0] + lengths)
    g = np.concatenate(g)
    y = np.concatenate(x, dtype=np.result_type(x[0], g))
    # g_1 .. g_N's nonzero coefficients, grade by grade: those of g_1 .. g_i lead the stack
    b = np.flatnonzero(_nonzero(g[1:])) + 1
    factors = g[b]
    grade = np.searchsorted(starts, b, side="right") - 1
    within = b - starts[grade]
    ends = np.searchsorted(b, starts)
    order = len(lengths) - 1
    for k in range(order):
        a = np.flatnonzero(_nonzero(y[starts[k]:starts[k + 1]]))
        count = ends[order - k + 1]
        if not (len(a) and count):
            continue
        products = stacked_product(descriptor, y[starts[k] + a][:, None], factors[None, :count])
        target = np.add.outer(a - starts[k + 1], starts[k + grade[:count]] + within[:count])
        tail = y[starts[k + 1]:]
        tail -= summed(products.reshape(-1, *g.shape[1:]), target.ravel(), len(tail))
    return np.split(y, starts[1:-1])


def evaluated(grades, q0, points) -> np.ndarray:
    """``sum_i q0^i X_i(s)`` at each ``s`` in ``points``, one payload per point, for stacks
    ``X_i`` laid out as a :class:`~qlax.timeorder.FlowSample`'s ``coefficients``: the
    grades are summed into one polynomial in ``s``, then evaluated by Horner's rule."""
    summed = np.zeros((len(grades[-1]) + len(grades) - 1, *grades[0].shape[1:]),
                      dtype=grades[-1].dtype)
    for i, grade in enumerate(grades):
        summed[i:i + len(grade)] += q0 ** i * grade
    s = np.asarray(points)[:, None, None]
    value = summed[-1]
    for coeff in summed[-2::-1]:
        value = coeff + s * value
    return value


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
        grades = np.flatnonzero(_nonzero(self.values))
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
            return self._like(graded_product(
                self.values[:, None], other.values[:, None],
                lambda a, b: stacked_product(self.descriptor, a, b))[:, 0])
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
        unit = GradedSeries.unit(self.descriptor, self.order).values[:, None]
        return self._like(np.concatenate(right_divide(self.descriptor, unit,
                                                      self.values[:, None])))

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
        q0 = coerce_scalar(self.descriptor, q0)
        value = self.values[-1]
        for coeff in self.values[-2::-1]:
            value = coeff + q0 * value
        return AlgebraElement(self.descriptor, value)
