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
(``Ad_{exp P} = exp(ad_P)``); that identity is a built-in cross-check.  The
node-by-node checks reduce the sampled flows with ``series.grade_max_norms``, in
blocks of about ``algebra.BLOCK_BYTES``; the residuals are taken on the flows'
polynomials, with no product per node.
"""

from __future__ import annotations

import numpy as np

from qlax.algebra import (
    MATRIX,
    AlgebraDescriptor,
    AlgebraElement,
    CapabilityError,
    ShapeMismatchError,
    matrix_descriptor,
    stacked_commutator,
)
from qlax.series import GradedSeries, grade_max_norms, graded_product
from qlax.lax import LaxFlowResult, LaxProblem, conjugate, solve_lax
from qlax.timeorder import (
    FlowSample,
    OperatorPath,
    _checked_polynomials,
    _residual_norms,
    _residual_polynomials,
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


def apply_operator(operator: AlgebraElement, element: AlgebraElement) -> AlgebraElement:
    """Apply a dense operator to an element via row-major flattening."""
    n = element.descriptor.n
    if operator.descriptor.n != n * n:
        raise ShapeMismatchError("operator size does not match the element algebra")
    flat = operator.data @ element.data.reshape(n * n)
    return AlgebraElement(element.descriptor, flat.reshape(n, n))


def apply_operator_series(operators: GradedSeries, elements: GradedSeries) -> GradedSeries:
    """Graded application ``(Phi . L)_n = sum_{i+j=n} Phi_i(L_j)``."""
    if operators.order != elements.order:
        raise ShapeMismatchError("series truncation orders differ")
    if operators.descriptor.n != elements.descriptor.n ** 2:
        raise ShapeMismatchError("operator size does not match the element algebra")
    flat = elements.values.reshape(1, len(elements.values), -1)
    applied = graded_product(operators.values[None], flat,
                             lambda x, y, _mask: (x @ y[..., None])[..., 0])
    return GradedSeries.from_values(elements.descriptor,
                                    applied[0].reshape(elements.values.shape))


def solve_symmetry(initial_operator: AlgebraElement, path: OperatorPath, q0: float,
                   order: int, grid) -> LaxFlowResult:
    """Solve the operator-level flow started from the dense operator ``initial_operator``.

    The driving path is the element-level path, pushed through ``ad``; the
    result is the solve of that operator-algebra problem.
    """
    return solve_lax(LaxProblem(initial=initial_operator, path=ad_path(path),
                                q0=q0, order=order, grid=grid))


def symmetry_residual_full(sym: LaxFlowResult, lax: LaxFlowResult) -> np.ndarray:
    """Per-grade max norm on the nodes of ``(d/dt S - [ad_{q P(q0 t)}, S]).L``.

    ``S`` is the operator flow and ``L`` the element flow, on one time grid; ``P`` is
    ``lax``'s path.  Both are taken as polynomials in ``s = t/T``: ``S``'s residual
    polynomials (:func:`~qlax.timeorder._residual_polynomials`) are applied to ``L``'s
    graded, ``(R.L)_n = sum_(i=1..n) R_i(L_(n-i))``, each a polynomial product in
    ``s``, and each grade is then sampled on the nodes.  The derivative is exact, so
    the floor is roundoff.
    """
    s_flow = sym.flow
    l_flow = lax.flow
    if len(s_flow) != len(l_flow) or s_flow.step != l_flow.step:
        raise ShapeMismatchError("operator and element flows use different grids")
    if s_flow.order != l_flow.order:
        raise ShapeMismatchError("operator and element flows use different orders")
    base_n = l_flow.descriptor.n
    if s_flow.descriptor.n != base_n * base_n:
        raise ShapeMismatchError("operator flow does not match the element algebra")
    q0 = sym.problem.q0
    if lax.problem.q0 != q0:
        raise ShapeMismatchError("operator and element flows use different scalings")

    path = ad_path(lax.problem.path)
    residuals = _residual_polynomials(
        lambda p, x: stacked_commutator(s_flow.descriptor, p, x), s_flow, path, q0)
    elements = [grade.reshape(len(grade), -1, 1)
                for grade in _checked_polynomials(l_flow, path.degree)]
    applied = [residuals[0]]
    for n in range(1, len(residuals)):
        total = np.zeros((n * path.degree + 1, base_n * base_n),
                         dtype=np.result_type(residuals[n], elements[0]))
        for i in range(1, n + 1):
            products = (residuals[i][:, None] @ elements[n - i][None])[..., 0]
            for a, row in enumerate(products):
                total[a:a + len(row)] += row
        applied.append(total.reshape(len(total), base_n, base_n))
    return _residual_norms(applied, l_flow)


def check_ad_exp_ad(group: FlowSample, operator_group: FlowSample) -> np.ndarray:
    """Grade-wise gap between conjugation by ``Exp(P)`` and the exponential of ``ad_P``.

    ``group`` is the element-level group series of a path and
    ``operator_group`` that of its ``ad`` path, on the same time grid, order
    and scaling (the groups of :func:`~qlax.lax.solve_lax` and
    :func:`solve_symmetry`).  A pseudo-random probe element is conjugated by
    ``group``, then compared against applying ``operator_group`` to it.
    """
    descriptor = group.descriptor
    if descriptor.backend != MATRIX:
        raise CapabilityError("the dense cross-check needs the matrix backend")
    if (operator_group.descriptor != operator_descriptor(descriptor)
            or operator_group.order != group.order or operator_group.q0 != group.q0
            or not np.array_equal(operator_group.times, group.times)):
        raise ShapeMismatchError("group series differ in algebra, times, order or q0")
    rng = np.random.default_rng(0)
    probe_data = rng.standard_normal((descriptor.n, descriptor.n))
    if descriptor.field == "complex":
        probe_data = probe_data + 1j * rng.standard_normal((descriptor.n, descriptor.n))
    probe = AlgebraElement(descriptor, probe_data)

    conjugated = conjugate(group, probe).values

    def gaps(block):
        applied = operator_group.values[block] @ probe.data.reshape(-1)
        return conjugated[block] - applied.reshape(conjugated[block].shape)

    return grade_max_norms(descriptor, operator_group.values, gaps)
