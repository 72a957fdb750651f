"""A one-parameter family of interval diffeomorphisms with no translation flow.

For a polynomial ``P`` with ``P(0) = P(1) = 0``, ``0 < P(x) < min(x, 1-x)``
and ``sup |P'| < 1`` on ``(0, 1)``, define

    phi(t, x) = P(x) t / ((1 - P(x)) t + P(x))          (t >= 0)

and the path of maps

    c_t(x) = x + phi(t, x)    for t >= 0,
    c_t(x) = x - phi(-t, x)   for t < 0.

Each ``c_t`` (|t| < 1) is an increasing diffeomorphism of the interval that
stays inside ``(x - P(x), x + P(x))``, the path is C^1 in ``t`` with velocity
exactly 1 at ``t = 0``, yet the plain translation ``x -> x + t`` leaves the
interval: the family integrates a unit velocity field without containing the
translation flow.  Everything here is verified numerically on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qlax.algebra import DomainError

FD_TOLERANCE = 1e-6
VELOCITY_STEP = 1e-7
MAX_GRID_POINTS = 10**6


class ModelError(DomainError):
    """The polynomial or grid violates the standing assumptions."""


@dataclass(frozen=True)
class AppendixModel:
    """The polynomial ``P``, the evaluation grid, and its safety margin."""

    coefficients: tuple[float, ...] = (0.0, 0.5, -0.5)
    margin: float = 1e-3
    points: int = 2001

    def __post_init__(self) -> None:
        # each precondition is written so that NaN fails it: NaN compares false
        if not 0.0 < self.margin < 0.5:
            raise ModelError("grid margin must lie in (0, 0.5)")
        if not 3 <= self.points <= MAX_GRID_POINTS:
            raise ModelError(f"grid needs 3 to {MAX_GRID_POINTS} points")
        poly = np.polynomial.Polynomial(self.coefficients)
        for endpoint in (0.0, 1.0):
            if not abs(poly(endpoint)) <= 1e-12:
                raise ModelError(f"P must vanish at {endpoint}")
        x = self.grid()
        values = poly(x)
        if not np.all(values > 0.0):
            raise ModelError("P must be positive on the grid")
        if not np.all(values < np.minimum(x, 1.0 - x)):
            raise ModelError("P must stay below min(x, 1-x) on the grid")
        slope = poly.deriv()(x)
        if not np.abs(slope).max() < 1.0:
            raise ModelError("sup |P'| must be < 1 on the grid")

    def grid(self) -> np.ndarray:
        return np.linspace(self.margin, 1.0 - self.margin, self.points)

    def p(self, x):
        return np.polynomial.Polynomial(self.coefficients)(x)

    def p_slope(self, x):
        return np.polynomial.Polynomial(self.coefficients).deriv()(x)


def default_model() -> AppendixModel:
    """The reference choice ``P(x) = (x - x^2) / 2``."""
    return AppendixModel()


def phi(model: AppendixModel, t: float, x):
    """``P(x) t / ((1 - P(x)) t + P(x))`` for ``t >= 0``."""
    if t < 0.0:
        raise DomainError("phi is defined for t >= 0; use c_path for signed times")
    p = model.p(np.asarray(x, dtype=float))
    denominator = (1.0 - p) * t + p
    if np.any(denominator <= 0.0):
        raise DomainError("phi denominator must stay positive")
    return p * t / denominator


def c_path(model: AppendixModel, t: float, x):
    """The signed-time path ``c_t`` on ``|t| < 1``."""
    if not -1.0 < t < 1.0:
        raise DomainError("the path is defined for |t| < 1")
    x = np.asarray(x, dtype=float)
    if t >= 0.0:
        return x + phi(model, t, x)
    return x - phi(model, -t, x)


@dataclass(frozen=True)
class BoundsReport:
    """Grid verification of the enclosure, derivative and monotonicity at one time."""

    t: float
    enclosure_violations: int
    derivative_violations: int
    min_enclosure_gap: float
    min_derivative_gap: float
    monotone: bool

    @property
    def passed(self) -> bool:
        return (self.enclosure_violations == 0 and self.derivative_violations == 0
                and self.monotone)


def verify_diffeo_bounds(model: AppendixModel, t: float) -> BoundsReport:
    """Check ``0 < x - P < c_t < x + P < 1``, ``|d/dx c_t - 1| <= |P'|`` and
    that ``c_t`` increases on the grid.

    The x-derivative is taken by centred differences with the grid spacing,
    so the derivative chain carries the tolerance :data:`FD_TOLERANCE`.
    """
    x = model.grid()
    p = model.p(x)
    c = c_path(model, t, x)
    lower = x - p
    upper = x + p
    enclosure = np.stack([
        lower > 0.0,
        c > lower,
        c < upper,
        upper < 1.0,
    ])
    enclosure_violations = int((~enclosure).sum())
    gaps = np.stack([lower, c - lower, upper - c, 1.0 - upper])
    spacing = x[1] - x[0]
    slope = (c[2:] - c[:-2]) / (2.0 * spacing)
    allowance = np.abs(model.p_slope(x[1:-1])) + FD_TOLERANCE
    deviation = np.abs(slope - 1.0)
    derivative_violations = int((deviation > allowance).sum())
    return BoundsReport(
        t=t,
        enclosure_violations=enclosure_violations,
        derivative_violations=derivative_violations,
        min_enclosure_gap=float(gaps.min()),
        min_derivative_gap=float((allowance - deviation).min()),
        monotone=bool(np.all(np.diff(c) > 0.0)),
    )


@dataclass(frozen=True)
class VelocityReport:
    """Finite-difference and exact velocity of the path at ``t = 0``."""

    dt: float
    max_deviation: float
    max_analytic_deviation: float
    branches_match: bool

    @property
    def passed(self) -> bool:
        return self.max_deviation <= 1e-6 and self.max_analytic_deviation == 0.0


def velocity_at_zero(model: AppendixModel) -> VelocityReport:
    """Estimate ``d/dt c_t(x)`` at ``t = 0`` over the grid.

    The path is only C^1 at ``t = 0`` (the two branches meet there), so the
    estimate extrapolates the one-sided slope ``phi(dt, x)/dt`` with
    ``dt = VELOCITY_STEP``, which is second-order accurate in ``dt``.  The
    closed form at ``t = 0`` is ``(P/P)^2 = 1`` for every grid point.
    """
    dt = VELOCITY_STEP
    x = model.grid()
    forward = c_path(model, dt, x) - x
    backward = x - c_path(model, -dt, x)
    branches_match = bool(np.array_equal(forward, backward))
    slope_1 = forward / dt
    slope_2 = (c_path(model, 2.0 * dt, x) - x) / (2.0 * dt)
    extrapolated = 2.0 * slope_1 - slope_2
    analytic = np.square(model.p(x) / model.p(x))
    return VelocityReport(
        dt=dt,
        max_deviation=float(np.abs(extrapolated - 1.0).max()),
        max_analytic_deviation=float(np.abs(analytic - 1.0).max()),
        branches_match=branches_match,
    )


@dataclass(frozen=True)
class NonregularityReport:
    """The translation flow exits the interval while the path stays enclosed."""

    x: float
    t: float
    translation_value: float
    translation_exits: bool
    path_value: float
    path_enclosed: bool
    identity_at_zero: bool

    @property
    def passed(self) -> bool:
        return self.translation_exits and self.path_enclosed and self.identity_at_zero


def demonstrate_nonregularity(model: AppendixModel, x: float = 0.5,
                              t: float = 0.6) -> NonregularityReport:
    """Contrast ``x -> x + t`` (leaves ``(0,1)``) with the enclosed path value."""
    if not 0.0 < x < 1.0:
        raise DomainError("the witness point must lie inside (0, 1)")
    translation = x + t
    path_value = float(c_path(model, t, np.asarray(x)))
    p = float(model.p(x))
    enclosed = (x - p) < path_value < (x + p)
    identity = float(c_path(model, 0.0, np.asarray(x))) == x
    return NonregularityReport(
        x=x,
        t=t,
        translation_value=translation,
        translation_exits=not (0.0 < translation < 1.0),
        path_value=path_value,
        path_enclosed=enclosed,
        identity_at_zero=identity,
    )
