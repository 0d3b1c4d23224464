"""Canonical initial data: circles, ellipses, cosine-series support functions.

Builders return validated SupportState / PlaneCurve objects; anything not
strictly convex is rejected as a configuration error before a solver sees it.
"""
from __future__ import annotations

import numpy as np

from .curves import resample_equal_arclength
from .errors import InvalidConfig
from .grids import TWO_PI, AngleGrid, support_derivatives
from .support import PlaneCurve, SupportState


def cosine_series(coeffs, theta: np.ndarray) -> np.ndarray:
    """Evaluate c0 + sum_j c_j cos(j theta) on the given angles."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise InvalidConfig("coefficients must be a nonempty finite 1-d sequence")
    out = np.full_like(theta, c[0], dtype=float)
    for j in range(1, c.size):
        out += c[j] * np.cos(j * theta)
    return out


def _speed_field(speed, theta: np.ndarray) -> np.ndarray:
    if np.isscalar(speed):
        v = float(speed)
        if not np.isfinite(v):
            raise InvalidConfig("speed must be finite")
        return np.full_like(theta, v)
    v = np.asarray(speed, dtype=float)
    if v.shape != theta.shape or not np.all(np.isfinite(v)):
        raise InvalidConfig("speed field must be finite and match the grid")
    return v


def circle_support(grid: AngleGrid, radius: float, speed=0.0) -> SupportState:
    if not radius > 0.0:
        raise InvalidConfig("circle radius must be positive")
    theta = grid.theta
    return SupportState(grid=grid, S=np.full(grid.N, float(radius)),
                        V=_speed_field(speed, theta))


# Overflowing semi-axes give inf or nan samples, which the state raises as NonFinite.
@np.errstate(all="ignore")
def ellipse_support(grid: AngleGrid, a: float, b: float, speed=0.0) -> SupportState:
    """Origin-centred ellipse with semi-axes a, b: S = sqrt(a^2cos^2 + b^2sin^2)."""
    if not (a > 0.0 and b > 0.0):
        raise InvalidConfig("ellipse semi-axes must be positive")
    theta = grid.theta
    S = np.sqrt((a * np.cos(theta)) ** 2 + (b * np.sin(theta)) ** 2)
    return SupportState(grid=grid, S=S, V=_speed_field(speed, theta))


def fourier_support(grid: AngleGrid, coeffs, speed=0.0) -> SupportState:
    """Cosine-series support function; rejects data that is not strictly convex."""
    theta = grid.theta
    state = SupportState(grid=grid, S=cosine_series(coeffs, theta),
                         V=_speed_field(speed, theta))
    rho = support_derivatives(state.sv)[0]
    if np.min(rho) <= 0.0:
        raise InvalidConfig(
            f"coefficients give a non-convex curve (min curvature radius "
            f"{float(np.min(rho)):.3e})")
    return state


def circle_curve(M: int, radius: float, speed=0.0) -> PlaneCurve:
    """Circle sampled at M uniformly spaced vertices, the ubiquitous test curve."""
    if not radius > 0.0:
        raise InvalidConfig("circle radius must be positive")
    if M < 3:
        raise InvalidConfig("need at least 3 vertices")
    alpha = TWO_PI * np.arange(M) / M
    P = radius * np.column_stack([np.cos(alpha), np.sin(alpha)])
    return PlaneCurve(P=P, sigma=_speed_field(speed, alpha), t=0.0)


@np.errstate(all="ignore")
def ellipse_curve(M: int, a: float, b: float, speed=0.0) -> PlaneCurve:
    """Ellipse sampled at M equal-arc-length vertices (dense resample)."""
    if not (a > 0.0 and b > 0.0):
        raise InvalidConfig("ellipse semi-axes must be positive")
    if M < 3:
        raise InvalidConfig("need at least 3 vertices")
    if not (np.isscalar(speed) and np.isfinite(float(speed))):
        raise InvalidConfig("ellipse curve preset takes a constant speed")
    dense = max(8 * M, 1024)
    t = np.linspace(0.0, 2.0 * np.pi, dense, endpoint=False)
    P_dense = np.column_stack([a * np.cos(t), b * np.sin(t)])
    P, _ = resample_equal_arclength(P_dense, count=M)
    return PlaneCurve(P=P, sigma=np.full(M, float(speed)), t=0.0)
