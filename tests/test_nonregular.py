from __future__ import annotations

import numpy as np
import pytest

from qlax import DomainError
from qlax.nonregular import (
    MAX_GRID_POINTS,
    AppendixModel,
    ModelError,
    c_path,
    default_model,
    demonstrate_nonregularity,
    phi,
    velocity_at_zero,
    verify_diffeo_bounds,
)


def test_default_model_invariants():
    model = default_model()
    assert model.coefficients == (0.0, 0.5, -0.5)  # P(x) = (x - x^2) / 2
    grid = model.grid()
    p = model.p(grid)
    assert grid[0] == pytest.approx(model.margin)
    assert grid[-1] == pytest.approx(1.0 - model.margin)
    assert np.all(p > 0.0)
    assert np.all(p < np.minimum(grid, 1.0 - grid))
    assert np.abs(model.p_slope(grid)).max() < 1.0


def test_model_precondition_gates():
    with pytest.raises(ModelError):
        AppendixModel(coefficients=(0.1, 0.5, -0.5))  # P(0) != 0
    with pytest.raises(ModelError):
        AppendixModel(coefficients=(0.0, 2.0, -2.0))  # P too steep / too large
    with pytest.raises(ModelError):
        AppendixModel(coefficients=(0.0, -0.5, 0.5))  # P < 0 inside
    with pytest.raises(ModelError):
        AppendixModel(margin=0.6)
    with pytest.raises(ModelError):
        AppendixModel(points=2)
    with pytest.raises(ModelError):
        AppendixModel(points=MAX_GRID_POINTS + 1)  # rejected before the grid is built
    assert len(AppendixModel(points=MAX_GRID_POINTS).grid()) == MAX_GRID_POINTS


@pytest.mark.parametrize("coefficients, margin", [
    ((float("nan"),), 1e-3),
    ((0.0, float("nan"), -0.5), 1e-3),
    ((0.0, 0.5, float("nan")), 1e-3),
    ((0.0, 0.5, -0.5), float("nan")),
])
def test_nan_model_is_rejected(coefficients, margin):
    with pytest.raises(ModelError):
        AppendixModel(coefficients=coefficients, margin=margin)


def test_phi_literals():
    model = default_model()
    x = model.grid()
    assert np.abs(phi(model, 0.0, x)).max() == 0.0
    assert np.abs(phi(model, 1.0, x) - model.p(x)).max() <= 1e-15
    # P(0.5) = 0.125: phi(0.5, 0.5) = 0.125*0.5 / (0.875*0.5 + 0.125) = 1/9
    assert phi(model, 0.5, 0.5) == pytest.approx(1.0 / 9.0, abs=1e-15)
    with pytest.raises(DomainError):
        phi(model, -0.2, 0.5)


def test_phi_monotone_and_dominated():
    model = default_model()
    x = model.grid()
    previous = phi(model, 0.0, x)
    for t in np.linspace(0.05, 1.0, 20):
        current = phi(model, float(t), x)
        assert np.all(current > previous)
        previous = current
    assert np.all(np.abs(phi(model, 1.0, x)) <= model.p(x) + 1e-15)


def test_c_path_branches():
    model = default_model()
    x = model.grid()
    assert np.abs(c_path(model, 0.0, x) - x).max() == 0.0
    t = 0.37
    assert np.abs(c_path(model, -t, x) - (x - phi(model, t, x))).max() == 0.0
    # near t = 1 the path approaches but never reaches x + P(x)
    value = c_path(model, 0.999, 0.5)
    assert 0.375 < value < 0.625
    with pytest.raises(DomainError):
        c_path(model, 1.0, 0.5)


def test_diffeo_bounds_at_spec_times():
    model = default_model()
    for t in (0.9, -0.9, 0.5, -0.5, 0.1):
        report = verify_diffeo_bounds(model, t)
        assert report.enclosure_violations == 0
        assert report.derivative_violations == 0
        assert report.min_enclosure_gap > 0.0
        assert report.passed


def test_diffeo_bounds_identity_case():
    model = default_model()
    report = verify_diffeo_bounds(model, 0.0)
    assert report.passed
    # derivative of the identity is 1, well inside 1 +- |P'|
    assert report.min_derivative_gap > 0.0


def test_velocity_at_zero():
    model = default_model()
    report = velocity_at_zero(model)
    assert report.branches_match
    assert report.max_analytic_deviation == 0.0  # (P/P)^2 is literally one
    assert report.max_deviation <= 1e-6
    assert report.passed


def test_translation_witness():
    model = default_model()
    report = demonstrate_nonregularity(model)
    assert report.x == 0.5 and report.t == 0.6
    assert report.translation_value == pytest.approx(1.1)
    assert report.translation_exits
    assert 0.375 < report.path_value < 0.625
    assert report.path_enclosed
    assert report.identity_at_zero
    assert report.passed


def test_witness_with_custom_point():
    model = default_model()
    report = demonstrate_nonregularity(model, x=0.7, t=0.4)
    assert report.translation_value == pytest.approx(1.1)
    assert report.translation_exits
    assert report.path_enclosed


def test_monotone_in_x():
    model = default_model()
    x = model.grid()
    for t in (0.9, -0.9, 0.5):
        assert np.all(np.diff(c_path(model, t, x)) > 0.0)
        assert verify_diffeo_bounds(model, t).monotone
