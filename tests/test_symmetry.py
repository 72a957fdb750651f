from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from qlax import (
    CapabilityError,
    ShapeMismatchError,
    AlgebraElement,
    commutator,
    diffop_descriptor,
    matrix_descriptor,
    matrix_element,
)
from qlax.lax import LaxFlowResult, lax_residual, preset_problem, solve_lax
from qlax.symmetry import (
    ad_operator,
    ad_path,
    check_ad_exp_ad,
    identity_operator,
    operator_descriptor,
    solve_symmetry,
    symmetry_residual_full,
)
from qlax.timeorder import FlowSample, OperatorPath, time_ordered_exp
from helpers import E12, E21, SL2_H, rand_matrix


def test_operator_descriptor_squares_dimension():
    assert operator_descriptor(matrix_descriptor(3)).n == 9
    with pytest.raises(CapabilityError):
        operator_descriptor(diffop_descriptor(2, 3))
    with pytest.raises(CapabilityError):
        operator_descriptor(matrix_descriptor(9))  # dense cap is n <= 8


def test_ad_literal_sl2():
    ad = ad_operator(matrix_element(E12))
    image = ad.data @ matrix_element(E21).data.reshape(-1)
    assert np.abs(image.reshape(2, 2) - np.array(SL2_H)).max() <= 1e-15


def test_ad_matches_commutator_everywhere():
    rng = np.random.default_rng(0)
    desc = matrix_descriptor(3)
    for _ in range(20):
        a, x = rand_matrix(rng, desc), rand_matrix(rng, desc)
        via_operator = ad_operator(a).data @ x.data.reshape(-1)
        direct = commutator(a, x)
        assert np.abs(via_operator.reshape(3, 3) - direct.data).max() <= 1e-12


def test_ad_is_a_derivation():
    # ad_a(xy) = ad_a(x) y + x ad_a(y), exactly to 1e-12
    rng = np.random.default_rng(1)
    desc = matrix_descriptor(3)
    for _ in range(50):
        a, x, y = (rand_matrix(rng, desc) for _ in range(3))
        left = commutator(a, x * y)
        right = commutator(a, x) * y + x * commutator(a, y)
        scale = max(1.0, a.norm() * x.norm() * y.norm())
        assert (left - right).norm() / scale <= 1e-12


def test_identity_operator_acts_trivially():
    desc = matrix_descriptor(2)
    rng = np.random.default_rng(2)
    x = rand_matrix(rng, desc)
    image = identity_operator(desc).data @ x.data.reshape(-1)
    assert np.array_equal(image.reshape(2, 2), x.data)


def _groups(path, q0, order, grid):
    """The group series of ``path`` and of its ``ad`` path."""
    return (time_ordered_exp(path, q0, order, grid),
            time_ordered_exp(ad_path(path), q0, order, grid))


def test_ad_exp_ad_on_presets():
    # conjugating by the group path equals exponentiating the ad path
    for name in ("rotation-2", "toda-3"):
        prob = preset_problem(name, q0=0.5, order=5, grid=(2e-3, 0.5))
        group, operator_group = _groups(prob.path, prob.q0, prob.order, prob.grid)
        assert check_ad_exp_ad(group, operator_group).max() <= 1e-9
        other = time_ordered_exp(prob.path, 0.25, prob.order, prob.grid)
        with pytest.raises(ShapeMismatchError):
            check_ad_exp_ad(other, operator_group)


def test_ad_exp_ad_rejects_groups_on_another_grid_or_order():
    path = preset_problem("rotation-2").path
    group, _ = _groups(path, 0.5, 4, (2e-3, 0.2))
    # same node count (101), other step: only the times tell the grids apart
    _, other_step = _groups(path, 0.5, 4, (1e-3, 0.1))
    assert len(other_step) == len(group)
    with pytest.raises(ShapeMismatchError):
        check_ad_exp_ad(group, other_step)
    _, other_order = _groups(path, 0.5, 3, (2e-3, 0.2))
    with pytest.raises(ShapeMismatchError):
        check_ad_exp_ad(group, other_order)
    with pytest.raises(ShapeMismatchError):
        check_ad_exp_ad(group, group)  # not an operator-algebra group


def test_ad_exp_ad_with_a_complex_probe():
    # a complex group gets a complex probe: real and imaginary parts both conjugated
    rng = np.random.default_rng(31)
    desc = matrix_descriptor(3, "complex")
    path = OperatorPath.polynomial([rand_matrix(rng, desc) * 0.5, rand_matrix(rng, desc) * 0.5])
    group, operator_group = _groups(path, 0.4, 4, (2e-3, 0.2))
    assert check_ad_exp_ad(group, operator_group).max() <= 1e-9


def test_identity_initial_operator_flow_is_constant():
    prob = preset_problem("rotation-2", q0=0.5, order=4, grid=(5e-3, 0.25))
    sym = solve_symmetry(identity_operator(prob.initial.descriptor), prob.path,
                         prob.q0, prob.order, prob.grid)
    op_desc = operator_descriptor(prob.initial.descriptor)
    for node in sym.flow.series:
        assert np.abs(node.coeffs[0].data - np.eye(op_desc.n)).max() <= 1e-14
        assert all(c.norm() <= 1e-14 for c in node.coeffs[1:])
    assert lax_residual(sym).max() <= 1e-12


def test_symmetry_residuals_below_threshold():
    prob = preset_problem("rotation-2", q0=0.5, order=4, grid=(1e-3, 0.5))
    lax_result = solve_lax(prob)
    sym = solve_symmetry(ad_operator(prob.initial), prob.path,
                         prob.q0, prob.order, prob.grid)
    assert lax_residual(sym).max() <= 1e-6
    assert symmetry_residual_full(sym, lax_result).max() <= 1e-6


@pytest.mark.parametrize("preset, change, message", [
    ("rotation-2", {"grid": (2e-3, 0.2)}, "different grids"),  # other node count
    ("rotation-2", {"grid": (1e-3, 0.05)}, "different grids"),  # same nodes, other step
    ("rotation-2", {"order": 3}, "different orders"),
    ("toda-3", {}, "does not match the element algebra"),
    ("rotation-2", {"q0": 0.25}, "different scalings"),
], ids=["nodes", "step", "order", "algebra", "q0"])
def test_symmetry_residual_rejects_flows_that_do_not_match(preset, change, message):
    prob = preset_problem("rotation-2", q0=0.5, order=4, grid=(2e-3, 0.1))
    sym = solve_symmetry(ad_operator(prob.initial), prob.path, prob.q0, prob.order, prob.grid)
    other = replace(preset_problem(preset, q0=0.5, order=4, grid=(2e-3, 0.1)), **change)
    with pytest.raises(ShapeMismatchError, match=message):
        symmetry_residual_full(sym, solve_lax(other))


def test_equivariance_ad_of_initial():
    # S0 = ad(L0) propagates to S(t) = ad(L(t)) grade-by-grade
    prob = preset_problem("toda-3", q0=0.5, order=5, grid=(2e-3, 0.5))
    lax_result = solve_lax(prob)
    sym = solve_symmetry(ad_operator(prob.initial), prob.path,
                         prob.q0, prob.order, prob.grid)
    worst = 0.0
    for lax_node, sym_node in zip(lax_result.flow.series, sym.flow.series):
        for g in range(prob.order + 1):
            expected = ad_operator(lax_node.coeffs[g])
            worst = max(worst, (sym_node.coeffs[g] - expected).norm())
    assert worst <= 1e-8


def test_commuting_initial_operator_gives_exact_zero_residual():
    # S0 = ad_P commutes with the generator ad_P, so S stays put and the
    # bracket vanishes identically
    generator = matrix_element([[0.0, -0.4], [0.4, 0.0]])
    path = OperatorPath.constant(generator)
    sym = solve_symmetry(ad_operator(generator), path, 0.5, 4, (2e-3, 0.2))
    s0 = ad_operator(generator)
    for node in sym.flow.series:
        assert np.abs(node.coeffs[0].data - s0.data).max() <= 1e-13
        assert all(c.norm() <= 1e-13 for c in node.coeffs[1:])


def test_constant_operator_counterexample_detected():
    # freezing S at ad(L0) is not a solution when [ad_P, ad_L0] != 0
    prob = preset_problem("rotation-2", q0=0.5, order=3, grid=(1e-3, 0.5))
    sym = solve_symmetry(ad_operator(prob.initial), prob.path,
                         prob.q0, prob.order, prob.grid)
    s0 = ad_operator(prob.initial)
    frozen_coefficients = [np.zeros_like(stack) for stack in sym.flow.coefficients]
    frozen_coefficients[0][0] = s0.data
    frozen_flow = FlowSample(sym.flow.times, s0.descriptor, frozen_coefficients,
                             step=sym.flow.step, q0=sym.flow.q0)
    frozen_result = LaxFlowResult(problem=sym.problem, group=sym.group, flow=frozen_flow)
    assert lax_residual(frozen_result)[1] >= 1e-2


def test_scaling_preserves_zero_residual_for_constant_paths():
    # a zero-residual solution of the unscaled equation stays a zero-residual
    # solution after scaling, because a constant path never sees q0
    generator = matrix_element([[0.0, -0.4], [0.4, 0.0]])
    initial = ad_operator(matrix_element(SL2_H))
    path = OperatorPath.constant(generator)
    unscaled = solve_symmetry(initial, path, 1.0, 4, (2e-3, 0.2))
    scaled = solve_symmetry(initial, path, 0.5, 4, (2e-3, 0.2))
    for a, b in zip(unscaled.flow.series, scaled.flow.series):
        for g in range(5):
            assert np.array_equal(a.coeffs[g].data, b.coeffs[g].data)
    assert lax_residual(unscaled).max() == lax_residual(scaled).max()


def test_diffop_backend_rejected():
    desc = diffop_descriptor(1, 3)
    zero_path = OperatorPath.constant(AlgebraElement.zero(desc))
    with pytest.raises(CapabilityError):
        solve_symmetry(AlgebraElement.one(desc), zero_path, 0.5, 3, (1e-2, 0.1))


def test_operator_of_the_wrong_algebra_rejected():
    path = OperatorPath.constant(matrix_element(E12))
    with pytest.raises(ShapeMismatchError):
        solve_symmetry(AlgebraElement.one(matrix_descriptor(2)), path, 0.5, 3, (1e-2, 0.1))


def test_ad_path_maps_coefficients():
    b = matrix_element(E12)
    path = OperatorPath.polynomial([b, 2.0 * b])
    mapped = ad_path(path)
    assert mapped.degree == 1
    expected = ad_operator(matrix_element([[0.0, 3.0], [0.0, 0.0]]))
    assert np.abs(mapped.at(1.0).data - expected.data).max() <= 1e-14
