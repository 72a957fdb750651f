"""Flows of linear operators on the coefficient algebra.

A matrix algebra of size ``n`` carries the operator algebra of linear maps on
it, realised densely as ``n^2 x n^2`` matrices acting on row-major flattened
elements.  The bracket generator ``ad_P : X -> P X - X P`` lives there, and an
operator path ``t -> ad_{P(t)}`` drives an operator-level Lax flow

    d/dt S = [ad_{q P(q0 t)}, S].

It is the element-level flow one level up: :func:`solve_symmetry` returns the
:class:`~qlax.lax.LaxFlowResult` of that operator problem, so the element-level
diagnostics (``lax_residual``, ``flow_difference``, ...) apply to it as they
stand.  Conjugating an element by the group series of ``P`` agrees grade by
grade with applying the operator exponential of the ``ad`` path
(``Ad_{exp P} = exp(ad_P)``); that identity is a built-in cross-check, and so is
``S = ad_L`` for ``S`` started from ``ad_(L0)`` (equivariance).  Every check is taken
on the flows' polynomial coefficients in ``s = t/T``, with no node, through the graded
kernels of :mod:`qlax.series` (the conjugation's forward substitution and the
polynomial product): per grade it reads the sum of its identity's coefficient norms,
a bound on all of ``[0, T]``.  An operator acts on an element as ``operator.data @
element.data.reshape(-1)``, reshaped back.
"""

from __future__ import annotations

import numpy as np

from qlax.algebra import (
    COMPLEX,
    MATRIX,
    AlgebraDescriptor,
    AlgebraElement,
    CapabilityError,
    ShapeMismatchError,
    matrix_descriptor,
    stacked_commutator,
)
from qlax.series import dense, graded_product
from qlax.lax import LaxFlowResult, LaxProblem, conjugated_polynomials, solve_lax
from qlax.timeorder import (
    FlowSample,
    OperatorPath,
    _checked_polynomials,
    _residual_polynomials,
    coefficient_bounds,
)

DENSE_OPERATOR_LIMIT = 8


def operator_descriptor(base: AlgebraDescriptor) -> AlgebraDescriptor:
    """Descriptor of the dense operator algebra over a matrix algebra."""
    if base.backend != MATRIX:
        raise CapabilityError("operator flows are available over the matrix backend only")
    if base.n > DENSE_OPERATOR_LIMIT:
        raise CapabilityError(
            f"dense operator algebra is capped at n <= {DENSE_OPERATOR_LIMIT}")
    return matrix_descriptor(base.n * base.n, base.field)


def ad_matrices(values: np.ndarray) -> np.ndarray:
    """Dense ``ad`` of every matrix of a stack: ``P (x) I - I (x) P^T`` (row-major).

    Each entry is the product ``np.kron`` forms, so a slice equals the
    single-matrix ``ad_operator`` payload bit for bit.
    """
    n = values.shape[-1]
    lead = values.shape[:-2]
    eye = np.eye(n, dtype=values.dtype)
    transposed = np.swapaxes(values, -1, -2)
    left = values[..., :, None, :, None] * eye[:, None, :]
    right = eye[:, None, :, None] * transposed[..., None, :, None, :]
    return (left - right).reshape(*lead, n * n, n * n)


def ad_operator(generator: AlgebraElement) -> AlgebraElement:
    """Dense ``ad_P`` in the operator algebra: ``P (x) I - I (x) P^T`` (row-major)."""
    return AlgebraElement(operator_descriptor(generator.descriptor),
                          ad_matrices(generator.data))


def ad_path(path: OperatorPath) -> OperatorPath:
    """Push a polynomial path through ``ad``: coefficients map termwise."""
    coeffs = tuple(ad_operator(c) for c in path.coeffs)
    return OperatorPath(coeffs, path.q0, path.name)


def identity_operator(base: AlgebraDescriptor) -> AlgebraElement:
    return AlgebraElement.one(operator_descriptor(base))


def solve_symmetry(initial_operator: AlgebraElement, path: OperatorPath, q0: float,
                   order: int, grid) -> LaxFlowResult:
    """Solve the operator-level flow started from the dense operator ``initial_operator``.

    The driving path is the element-level path, pushed through ``ad``; the
    result is the solve of that operator-algebra problem.
    """
    return solve_lax(LaxProblem(initial=initial_operator, path=ad_path(path),
                                q0=q0, order=order, grid=grid))


def _check_matched(sym: LaxFlowResult, lax: LaxFlowResult) -> None:
    """Raise unless operator flow ``sym`` acts on element flow ``lax``'s algebra and grid."""
    s_flow, l_flow = sym.flow, lax.flow
    if len(s_flow) != len(l_flow) or s_flow.step != l_flow.step:
        raise ShapeMismatchError("operator and element flows use different grids")
    if s_flow.order != l_flow.order:
        raise ShapeMismatchError("operator and element flows use different orders")
    if s_flow.descriptor.n != l_flow.descriptor.n ** 2:
        raise ShapeMismatchError("operator flow does not match the element algebra")
    if lax.problem.q0 != sym.problem.q0:
        raise ShapeMismatchError("operator and element flows use different scalings")


def symmetry_residual_full(sym: LaxFlowResult, lax: LaxFlowResult) -> np.ndarray:
    """Per-grade bound on ``[0, T]`` of ``(d/dt S - [ad_{q P(q0 t)}, S]).L``.

    ``S`` is the operator flow and ``L`` the element flow, on one time grid; ``P`` is
    ``lax``'s path.  ``S``'s residual polynomials in ``s = t/T``
    (:func:`~qlax.timeorder._residual_polynomials`) are applied to ``L``'s graded,
    ``(R.L)_n = sum_(i=1..n) R_i(L_(n-i))`` (:func:`~qlax.series.graded_product`), and
    bounded by :func:`~qlax.timeorder.coefficient_bounds`: the floor is roundoff.
    """
    _check_matched(sym, lax)
    path, descriptor = ad_path(lax.problem.path), sym.flow.descriptor
    residuals = _residual_polynomials(lambda p, x: stacked_commutator(descriptor, p, x),
                                      sym.flow, path, sym.problem.q0)
    elements = dense(_checked_polynomials(lax.flow, path.degree))
    return coefficient_bounds(lax.flow.descriptor, graded_product(
        dense(residuals), elements,
        lambda r, x: (r @ x.reshape(len(x), r.shape[-1], 1)).reshape(x.shape)))


def check_ad_exp_ad(group: FlowSample, operator_group: FlowSample) -> np.ndarray:
    """Grade-wise gap between conjugation by ``Exp(P)`` and the exponential of ``ad_P``.

    ``group`` is the element-level group series of a path and
    ``operator_group`` that of its ``ad`` path, on the same time grid, order
    and scaling (the groups of :func:`~qlax.lax.solve_lax` and
    :func:`solve_symmetry`).  A probe element is conjugated by ``group`` and
    ``operator_group`` is applied to it, both on their coefficients in ``s = t/T``,
    bounded on ``[0, T]`` by :func:`~qlax.timeorder.coefficient_bounds`.  The probe is
    dense, non-symmetric and full rank, in closed form from correctly rounded divisions
    only: the Cauchy matrix ``1 / (i - j + 1/2)`` (condition number below 2.4 for ``n <=
    8``), plus ``1j / (i + 2 j + 1)`` on a complex field.
    """
    descriptor = group.descriptor
    if descriptor.backend != MATRIX:
        raise CapabilityError("the dense cross-check needs the matrix backend")
    if (operator_group.descriptor != operator_descriptor(descriptor)
            or operator_group.order != group.order or operator_group.q0 != group.q0
            or not np.array_equal(operator_group.times, group.times)):
        raise ShapeMismatchError("group series differ in algebra, times, order or q0")
    row, column = np.indices((descriptor.n, descriptor.n))
    probe_data = 1.0 / (row - column + 0.5)
    if descriptor.field == COMPLEX:
        probe_data = probe_data + 1j * (1.0 / (row + 2 * column + 1.0))
    conjugated = conjugated_polynomials(group, AlgebraElement(descriptor, probe_data))
    operators = _checked_polynomials(operator_group, (len(conjugated[-1]) - 1) // group.order)
    return coefficient_bounds(descriptor, [
        stack - (operator @ probe_data.reshape(-1)).reshape(stack.shape)
        for stack, operator in zip(conjugated, operators)])


def equivariance_gap(sym: LaxFlowResult, lax: LaxFlowResult) -> np.ndarray:
    """Per-grade bound on ``[0, T]`` of ``S - ad_L``, ``S`` the operator flow from ``ad_(L0)``:
    ``ad`` is linear, so it is taken on the flows' coefficients in ``s = t/T``."""
    _check_matched(sym, lax)
    degree = lax.problem.path.degree
    return coefficient_bounds(sym.flow.descriptor, [
        stack - ad_matrices(grade) for stack, grade in
        zip(_checked_polynomials(sym.flow, degree), _checked_polynomials(lax.flow, degree))])
