"""Partial graded index monoids and series indexed by them.

Grades generalise from integers to indexes ``(manifold type, grade)`` drawn
from a partial monoid.  Two monoids are built in:

* the natural numbers under addition, and
* connected compact 1-manifold types under end-to-end gluing.  There are
  exactly five types: the circle and the four interval types distinguished
  by which of their two boundary points they contain.  ``first * second``
  glues the initial point of ``first`` to the final point of ``second`` and
  is defined only when both exist; the glued interval keeps the initial
  boundary type of ``second`` and the final boundary type of ``first``.  The
  circle has no boundary and composes with nothing.

Indexes multiply by composing manifold parts and adding grades, so an
:class:`IndexedSeries` multiplies like a graded series whose grade line has
been refined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from qlax.algebra import AlgebraDescriptor, AlgebraElement, DomainError, ShapeMismatchError


@dataclass(frozen=True)
class OneManifold:
    """A connected compact 1-manifold type, encoded by its boundary content."""

    label: str
    has_initial: bool
    has_final: bool
    closed_loop: bool = False

    def __repr__(self) -> str:
        return self.label


CIRCLE = OneManifold("S1", False, False, closed_loop=True)
RIGHT_OPEN = OneManifold("[0;1[", True, False)
OPEN = OneManifold("]0;1[", False, False)
LEFT_OPEN = OneManifold("]0;1]", False, True)
CLOSED = OneManifold("[0;1]", True, True)

# Enumeration order is fixed so tables and CSV exports are reproducible.
GR1_ELEMENTS: tuple[OneManifold, ...] = (CIRCLE, RIGHT_OPEN, OPEN, LEFT_OPEN, CLOSED)

_BY_BOUNDARY = {(m.has_initial, m.has_final): m for m in GR1_ELEMENTS if not m.closed_loop}


def glue(first: OneManifold, second: OneManifold) -> OneManifold | None:
    """End-to-end gluing ``first * second``; ``None`` when undefined.

    Defined exactly when ``first`` contains its initial boundary point and
    ``second`` contains its final boundary point (the glued pair of points
    must exist).  Gluing a single pair of interval ends always yields an
    interval again, never a circle.
    """
    if first.closed_loop or second.closed_loop:
        return None
    if not (first.has_initial and second.has_final):
        return None
    return _BY_BOUNDARY[(second.has_initial, first.has_final)]


@dataclass(frozen=True)
class IndexMonoid:
    """A partial monoid of graded indexes.

    ``compose`` returns ``None`` where the partial product is undefined.
    ``enumerate_grade`` lists, in a fixed order, every index of one grade.
    """

    name: str
    neutral: Any | None
    grade: Callable[[Any], int]
    compose: Callable[[Any, Any], Any | None]
    grade_elements: Callable[[int], tuple]

    def enumerate_grade(self, grade: int) -> tuple:
        if grade < 0:
            raise DomainError("grades are nonnegative")
        return self.grade_elements(grade)


def natural_monoid() -> IndexMonoid:
    """The total monoid of nonnegative integer grades under addition."""
    return IndexMonoid(
        name="natural",
        neutral=0,
        grade=lambda n: n,
        compose=lambda a, b: a + b,
        grade_elements=lambda n: (n,),
    )


NEUTRAL_INDEX = (None, 0)


def _gr1_compose(first, second):
    if first == NEUTRAL_INDEX:
        return second
    if second == NEUTRAL_INDEX:
        return first
    part = glue(first[0], second[0])
    if part is None:
        return None
    return (part, first[1] + second[1])


def _gr1_grade_elements(grade: int) -> tuple:
    if grade == 0:
        return (NEUTRAL_INDEX,)
    return tuple((part, grade) for part in GR1_ELEMENTS)


def gr1_monoid() -> IndexMonoid:
    """Indexes ``(manifold type, positive grade)`` plus the neutral ``(None, 0)``."""
    return IndexMonoid(
        name="gr1",
        neutral=NEUTRAL_INDEX,
        grade=lambda index: index[1],
        compose=_gr1_compose,
        grade_elements=_gr1_grade_elements,
    )


def _index_sort_key(monoid: IndexMonoid, index):
    return (monoid.grade(index), repr(index))


def closure(monoid: IndexMonoid, generators, max_grade: int) -> frozenset:
    """Smallest family containing ``generators`` stable under composition up to ``max_grade``."""
    found = {g for g in generators if monoid.grade(g) <= max_grade}
    frontier = list(found)
    while frontier:
        fresh = []
        for a in list(found):
            for b in frontier:
                for left, right in ((a, b), (b, a)):
                    product = monoid.compose(left, right)
                    if product is None or monoid.grade(product) > max_grade:
                        continue
                    if product not in found:
                        found.add(product)
                        fresh.append(product)
        frontier = fresh
    return frozenset(found)


def generated_monoid(monoid: IndexMonoid, generators, max_grade: int) -> IndexMonoid:
    """Restriction of ``monoid`` to the family generated by ``generators``."""
    family = closure(monoid, generators, max_grade)

    def grade_elements(grade: int) -> tuple:
        members = [i for i in family if monoid.grade(i) == grade]
        members.sort(key=lambda i: _index_sort_key(monoid, i))
        return tuple(members)

    return IndexMonoid(
        name=f"{monoid.name}-generated",
        neutral=monoid.neutral if monoid.neutral in family else None,
        grade=monoid.grade,
        compose=monoid.compose,
        grade_elements=grade_elements,
    )


def is_stable(monoid: IndexMonoid, family, max_grade: int) -> bool:
    """Whether every defined pairwise product of ``family`` (grade <= cap) stays inside."""
    members = list(family)
    for a in members:
        for b in members:
            product = monoid.compose(a, b)
            if product is None or monoid.grade(product) > max_grade:
                continue
            if product not in family:
                return False
    return True


class IndexedSeries:
    """A finite sum ``sum_i q^i a_i`` over indexes of a partial monoid.

    Terms with undefined index products annihilate; grades beyond the
    truncation order are dropped, exactly as in a :class:`GradedSeries`.
    """

    __slots__ = ("monoid", "descriptor", "order", "terms")

    def __init__(self, monoid: IndexMonoid, descriptor: AlgebraDescriptor,
                 order: int, terms: dict | None = None):
        if order < 1:
            raise DomainError("truncation order must be >= 1")
        cleaned = {}
        for index, coeff in (terms or {}).items():
            if coeff.descriptor != descriptor:
                raise ShapeMismatchError("coefficient does not match the series descriptor")
            if monoid.grade(index) > order:
                raise DomainError(f"index {index!r} exceeds the truncation order {order}")
            if not coeff.is_zero:
                cleaned[index] = coeff
        ordered = sorted(cleaned, key=lambda i: _index_sort_key(monoid, i))
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", {i: cleaned[i] for i in ordered})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("IndexedSeries is immutable")

    @classmethod
    def unit(cls, monoid: IndexMonoid, descriptor: AlgebraDescriptor, order: int) -> "IndexedSeries":
        if monoid.neutral is None:
            raise DomainError("monoid has no neutral index")
        return cls(monoid, descriptor, order,
                   {monoid.neutral: AlgebraElement.one(descriptor)})

    def coefficient(self, index) -> AlgebraElement:
        return self.terms.get(index, AlgebraElement.zero(self.descriptor))

    def _check_compatible(self, other: "IndexedSeries") -> None:
        if self.monoid is not other.monoid and self.monoid.name != other.monoid.name:
            raise ShapeMismatchError("series indexed by different monoids")
        if self.descriptor != other.descriptor or self.order != other.order:
            raise ShapeMismatchError("series shapes differ")

    def __add__(self, other):
        if not isinstance(other, IndexedSeries):
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self.terms)
        for index, coeff in other.terms.items():
            merged[index] = merged[index] + coeff if index in merged else coeff
        return IndexedSeries(self.monoid, self.descriptor, self.order, merged)

    def __mul__(self, other):
        if not isinstance(other, IndexedSeries):
            return NotImplemented
        self._check_compatible(other)
        out: dict = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                index = self.monoid.compose(i, j)
                if index is None or self.monoid.grade(index) > self.order:
                    continue
                term = a * b
                out[index] = out[index] + term if index in out else term
        return IndexedSeries(self.monoid, self.descriptor, self.order, out)

    def __eq__(self, other):
        if not isinstance(other, IndexedSeries):
            return NotImplemented
        if self.descriptor != other.descriptor or self.order != other.order:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[i] == other.terms[i] for i in self.terms)

    __hash__ = None

    def __repr__(self) -> str:
        return f"<IndexedSeries monoid={self.monoid.name} terms={len(self.terms)}>"


def composition_table(monoid: IndexMonoid, grade: int = 1) -> list[tuple]:
    """All ordered pairs of one grade with their product (``None`` if undefined)."""
    members = monoid.enumerate_grade(grade)
    return [(a, b, monoid.compose(a, b)) for a in members for b in members]
