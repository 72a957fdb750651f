"""Time-ordered exponentials of scaled operator paths.

For a polynomial path ``t -> P(t)`` and a scaling parameter ``q0 in (0, 1]``,
the scaled path ``t -> q P(q t)`` has a time-ordered exponential whose
grade-``i`` coefficient is the iterated simplex integral of ``i`` path factors.
Those coefficients solve the triangular linear system

    A_0(t) = 1,    A_i'(t) = P(q0 t) A_{i-1}(t),    A_i(0) = 0  (i >= 1),

whose grades are polynomials in ``t``.  This module computes their
coefficients exactly, by one product call per grade, and one sampler evaluates
every grade on the nodes it is asked for, whose spacing is all the grid's step
sets: one table of the powers ``(t/T)^k`` and one matrix product per grade.  The
grade marker stays formal: coefficients carry the numeric parameter ``q0``
only inside the integrand ``P(q0 s)``, and each grade-``i`` coefficient is the
weight of ``q^i`` in the group series.  A path on the grid is a
:class:`FlowSample`: its polynomial coefficients and its times, and nothing else;
its nodes are sampled when they are read, and only those.  The residual checks of
the flow equations work on those coefficients too, with one product call for all
grades and none per node: the derivative of a polynomial is exact, so their floor is
roundoff, and the sum of a grade's coefficient norms (:func:`coefficient_bounds`)
bounds it on all of ``[0, T]``.  Every integration takes a :class:`LaxProblem`,
whose construction is the one check of its inputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from qlax.algebra import (
    BLOCK_BYTES,
    MAX_FLOW_BYTES,
    AlgebraDescriptor,
    AlgebraElement,
    DomainError,
    ShapeMismatchError,
    blocks,
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
    ROADMAP.md open item 5, since the frozen benchmark passes ``q0``
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


@dataclass(frozen=True, eq=False)
class FlowSample:
    """A series-valued path on a uniform time grid, held as its grade polynomials.

    ``coefficients[i]`` is the read-only ``(i d + 1, *shape)`` stack of grade ``i``'s
    coefficients of ``s^i .. s^(i (d + 1))`` in ``s = t/T``, in the algebra
    ``descriptor``, with ``d`` the path's degree and ``T`` the last of ``times``; the
    sample's ``order`` is its number of grades less one.  Every sample the library
    produces (a group, a conjugated flow, a direct flow) is built this way, and a node
    is only a view of them: :meth:`nodes` samples the ``(order + 1, *shape)`` nodes it
    is asked for (:func:`_sample_grades`) and keeps nothing, so a reader that walks
    :meth:`node_blocks` holds about one block of nodes at a time; ``series`` shows
    nodes as :class:`GradedSeries` the same way, and ``len()`` reads ``times``.
    :func:`~qlax.lax.conjugate` reads a group's coefficients, the checks read any
    sample's, and ``qlax solve`` writes a flow's.  ``times`` is made read-only too,
    since samples of one solve share it.
    """

    times: np.ndarray
    descriptor: AlgebraDescriptor
    coefficients: tuple[np.ndarray, ...]
    _: KW_ONLY
    step: float
    q0: float

    def __post_init__(self) -> None:
        coefficients = tuple(self.coefficients)
        if not coefficients:
            raise DomainError("a flow sample needs at least grade 0's coefficients")
        for stack in coefficients:
            if stack.shape[1:] != self.descriptor.shape:
                raise ShapeMismatchError(f"a coefficient stack of shape {stack.shape} "
                                         f"is not a stack of {self.descriptor.shape} payloads")
            stack.setflags(write=False)
        self.times.setflags(write=False)
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def nodes(self, index) -> np.ndarray:
        """The nodes at ``times[index]``, sampled from ``coefficients`` at those nodes
        only (:func:`_sample_grades`)."""
        return _sample_grades(self.coefficients, self.descriptor, self.times, index)

    def node_blocks(self) -> list[slice]:
        """Slices covering the nodes, each about ``BLOCK_BYTES`` of sampled values
        (:func:`~qlax.algebra.blocks`)."""
        payload = math.prod(self.descriptor.shape) * self.descriptor.dtype.itemsize
        return blocks(len(self), (self.order + 1) * payload)

    @property
    def series(self) -> "SeriesView":
        return SeriesView(self)

    def __len__(self) -> int:
        return len(self.times)


class SeriesView(Sequence):
    """The nodes of a sample as :class:`GradedSeries`, each sampled on access
    (:meth:`FlowSample.nodes`): ``series[k]`` samples node ``k`` alone, a slice its own
    nodes, and iteration one block of nodes (:meth:`FlowSample.node_blocks`) at a time."""

    __slots__ = ("flow",)

    def __init__(self, flow: FlowSample):
        self.flow = flow

    def __len__(self) -> int:
        return len(self.flow)

    def _series(self, values: np.ndarray) -> GradedSeries:
        return GradedSeries.from_values(self.flow.descriptor, values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._series, self.flow.nodes(index)))
        return self._series(self.flow.nodes(index))

    def __iter__(self):
        for block in self.flow.node_blocks():
            yield from map(self._series, self.flow.nodes(block))


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
            raise DomainError(f"the solve's polynomials, product stacks and node stacks "
                              f"exceed {MAX_FLOW_BYTES} bytes")


def _solve_bytes(descriptor: AlgebraDescriptor, degree: int, order: int, steps: int) -> int:
    """The most bytes that a solve of order ``order`` on ``steps + 1`` nodes, driven by a
    path of degree ``degree``, and the checks and writers of its commands hold at once,
    counted without allocating anything.

    The count adds: the group and the flow as polynomials; the larger of the
    conjugation's largest call with its stacks and a residual check's stacks; one tile of
    the product kernel; one block of sampled nodes (:meth:`FlowSample.node_blocks`) with
    its power table; one block of the nodes that :func:`~qlax.lax.oracle_errors` and the
    ``sweep.csv`` writer evaluate (:func:`~qlax.series.evaluated`); and, on every node,
    the times and ``flow.json``'s list of them.  No whole sample is counted, since none is
    formed.  The text and Python objects that a writer builds from one block of nodes are
    not counted: they are bounded by the block, not by the grid.
    """
    d, n = degree, order
    size = math.prod(descriptor.shape)
    payload = size * descriptor.dtype.itemsize
    polynomials = 2 * (n + 1 + d * n * (n + 1) // 2) * payload
    # right_divide's call k pairs the k d + 1 coefficients of L_k with the m + d m (m +
    # 1) / 2 of g_1 .. g_m, m = n - k, each pair with its product, its flat indices (a
    # word an entry) and eight indices of its own; beside them live g L0, g joined, g's
    # gathered factors and the tail of L that summed returns, at most a flow's
    # polynomials each
    conjugation = (_largest_division_call(d, n) * (payload + 8 * size + 64)
                   + 4 * (n + 1 + d * n * (n + 1) // 2) * payload)
    # a residual check's one call over the d + 1 generators and the n + d n (n - 1) / 2
    # coefficients of grades 0..n-1: a commutator's two products and their difference,
    # and the residuals, as many payloads as one flow's polynomials (the grade
    # recurrence's call, on grade n - 1 alone, holds fewer)
    residual = (3 * (d + 1) * (n + d * n * (n - 1) // 2) + n + 1 + d * n * (n + 1) // 2) * payload
    # a block's n + 1 payloads a node, and its power table, s and zero mask in
    # n (d + 1) + 2 floats a node
    node = (n + 1) * payload
    block = min(steps + 1, max(1, BLOCK_BYTES // node)) * (node + 8 * (n * (d + 1) + 2))
    # Horner's value, its product by s and their sum, and the block's s, scaled s and
    # norms: three payloads and three floats a node
    evaluation = min(steps + 1, max(1, BLOCK_BYTES // payload)) * (3 * payload + 24)
    # the times (a float) and flow.json's list of them (a float object and its pointer)
    per_node = (steps + 1) * 40
    return (polynomials + max(conjugation, residual) + kernel_block_bytes(descriptor)
            + block + evaluation + per_node)


def _largest_division_call(degree: int, order: int) -> int:
    """The most pairs of one :func:`~qlax.series.right_divide` call on a flow of order
    ``order`` driven by a path of degree ``degree``: the largest over ``k < order`` of
    ``(k d + 1)(m + d m (m + 1) / 2)``, ``m = order - k``.  That is a product of
    log-concave sequences in ``k``, so it rises, then falls, and a bisection on its steps
    finds the top."""
    def pairs(k):
        m = order - k
        return (k * degree + 1) * (m + degree * m * (m + 1) // 2)

    low, high = 0, order - 1
    while low < high:
        middle = (low + high) // 2
        if pairs(middle + 1) > pairs(middle):
            low = middle + 1
        else:
            high = middle
    return pairs(low)


def _scaled_generators(path: OperatorPath, q0: float, horizon: float) -> np.ndarray:
    """The coefficients of ``P(q0 t)`` in ``s = t/T``: ``(q0 T)^e P_e``, as a column stack."""
    return np.stack([(q0 * horizon) ** e * c.data for e, c in enumerate(path.coeffs)])[:, None]


def _driven(products: np.ndarray, descriptor: AlgebraDescriptor) -> np.ndarray:
    """The coefficients in ``s`` of ``produce(P(q0 t), X)`` from ``products[e, j] =
    produce(generators[e], X_j)``: entry ``m`` is ``sum_(e + j = m) products[e, j]``,
    added with ``e`` ascending."""
    coeffs = np.zeros((products.shape[0] + products.shape[1] - 1, *descriptor.shape),
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
        coeffs = _driven(produce(generators, grades[-1][None]), descriptor)
        coeffs *= (horizon / np.arange(i, i + len(coeffs)))[:, None, None]
        grades.append(coeffs)
    return grades


def _checked_polynomials(sample: "FlowSample", degree: int) -> tuple[np.ndarray, ...]:
    """``sample.coefficients``, checked to hold grade ``i`` of a degree-``degree`` path's
    flow in ``i degree + 1`` coefficients."""
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

    at ``s^(k - 1)``.  One ``produce`` call serves every grade, on the outer pair of
    stacks of the generators and of all the coefficients of grades ``0..N-1``, and none
    serves a node; its products are then summed grade by grade as :func:`_driven` sums
    them.  Entry ``i >= 1`` is the stack of the coefficients of ``s^(i - 1) .. s^(i (d +
    1) - 1)``; entry 0, the derivative of a constant, holds none.
    """
    grades = _checked_polynomials(sample, path.degree)
    horizon = sample.times[-1]
    generators = _scaled_generators(path, q0, horizon)
    starts = np.cumsum([len(grade) for grade in grades[:-1]])
    products = np.split(produce(generators, np.concatenate(grades[:-1])[None]), starts[:-1],
                        axis=1)
    residuals = [grades[0][:0]]
    for i in range(1, len(grades)):
        derivative = grades[i] * (np.arange(i, i + len(grades[i])) / horizon)[:, None, None]
        residuals.append(derivative - _driven(products[i - 1], sample.descriptor))
    return residuals


def coefficient_bounds(descriptor: AlgebraDescriptor, grades) -> np.ndarray:
    """Per grade, ``sum_k ||c_k||`` over the coefficients ``c_k`` in ``s = t/T`` of stacks
    laid out as a :class:`FlowSample`'s ``coefficients`` (a grade with none reads 0).
    Since ``0 <= s <= 1``, it bounds the grade's norm on all of ``[0, T]``, with no node."""
    return np.array([element_norms(descriptor, grade).sum() for grade in grades])


def _sample_grades(grades, descriptor: AlgebraDescriptor, times: np.ndarray,
                   index=slice(None)) -> np.ndarray:
    """The values at ``times[index]`` of the grade polynomials ``grades`` (see
    :class:`FlowSample`): one ``(order + 1, *shape)`` node for an integer index, a
    stack of them for a slice.

    Node ``k`` of grade ``i`` is ``sum_j grades[i][j] s_k^(i + j)`` with ``s_k =
    times[k] / times[-1]``: one table of the powers of ``s`` on the asked nodes, and one
    matrix product per grade written in place into the sample.  Where ``s = 0`` every
    grade above 0 is written as ``+0.0``, its exact value, whatever the signs or
    infinities of its coefficients.  A node's bits do not depend on the nodes sampled
    with it, so any index gives the bits of the whole sample's slice.  The product is
    ``np.einsum``'s loop, not BLAS: ``matmul`` here brings in a real-valued BLAS kernel
    that a diffop solve otherwise never runs, and raised its peak RSS by 0.3-0.4 MiB.
    A complex stack is multiplied as pairs of real numbers, so the real table never
    becomes complex.
    """
    order = len(grades) - 1
    s = times[index] / times[-1]
    flat = np.reshape(s, -1)
    values = np.zeros((len(flat), order + 1, *descriptor.shape), dtype=descriptor.dtype)
    values[:, 0] = grades[0][0]
    powers = flat[:, None] ** np.arange(len(grades[-1]) + order)
    floats = math.prod(descriptor.shape) * descriptor.dtype.itemsize // 8
    real = values.view(np.float64).reshape(len(flat), order + 1, floats)
    for i in range(1, order + 1):
        stack = grades[i].view(np.float64).reshape(len(grades[i]), -1)
        np.einsum("nk,kf->nf", powers[:, i:i + len(stack)], stack, out=real[:, i])
    values[flat == 0.0, 1:] = 0.0
    return values if np.ndim(s) else values[0]


def _integrate_polynomial(produce, problem: LaxProblem) -> FlowSample:
    """:func:`_grade_polynomials` on the grid's times, each node sampled when it is read."""
    step, horizon, steps = _expand_grid(problem.grid)
    return FlowSample(np.linspace(0.0, horizon, steps + 1), problem.path.descriptor,
                      _grade_polynomials(produce, problem), step=step, q0=problem.q0)


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
    g) g^(-1) = q P(q0 t)``.  The derivative is exact, so the floor is roundoff.
    """
    descriptor = group.descriptor
    return coefficient_bounds(descriptor, _residual_polynomials(
        lambda p, x: stacked_product(descriptor, p, x), group, path, q0))
