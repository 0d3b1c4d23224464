"""Radially symmetric reductions: closed forms, regimes, numeric integration.

Every rotationally symmetric solution (spheres in R^{n+1}, cylinders, plane
circles) reduces to the linear ODE

    r'' = stiffness * r,     stiffness = 1/n (sphere), 1 (cylinder, circle)

with closed form, writing lam = sqrt(stiffness),

    r(t) = ((r0 + r1/lam)/2) e^{lam t} + ((r0 - r1/lam)/2) e^{-lam t}.

The fate of the solution is decided by the discriminants d+- = r0 +- r1/lam;
see classify_regime.  The forced variant r'' = (stiffness + c(t)) r is
bracketed by the constant-coefficient solutions with c frozen at its bounds.
One RK4 march integrates the unforced (c = 0), forced and bracket rows.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BracketViolation,
    InvalidConfig,
    InvalidForcing,
    InvalidInitialRadius,
    NonFinite,
)
from .flow import _BISECT_TOL, fixed_step_count
from .grids import _readonly

_ZERO_DISCRIMINANT_RTOL = 1e-12

# Notes attached to reports where the implemented value deviates from a
# published one on purpose.
CYLINDER_HALF_FACTOR_FLAG = (
    "cylinder horizon uses T_max = (1/2)ln((r1-r0)/(r1+r0)); the doubled "
    "value ln(...) sometimes quoted for this case omits the 1/2 factor"
)


@dataclass(frozen=True)
class RadialGeometry:
    """One of the symmetric reductions; stiffness is the ODE coefficient."""

    kind: str          # "sphere" | "cylinder" | "circle"
    n: int | None = None

    def __post_init__(self):
        if self.kind == "sphere":
            # n must convert to a float for the stiffness 1/n.
            if self.n is None or not 2 <= self.n <= sys.float_info.max:
                raise InvalidConfig("sphere reduction requires 2 <= n <= the largest float")
        elif self.kind in ("cylinder", "circle"):
            if self.n is not None:
                raise InvalidConfig(f"{self.kind} takes no dimension parameter")
        else:
            raise InvalidConfig(f"unknown radial geometry {self.kind!r}")

    @property
    def stiffness(self) -> float:
        return 1.0 / self.n if self.kind == "sphere" else 1.0

    @property
    def lam(self) -> float:
        return math.sqrt(self.stiffness)

    def degenerate_target(self) -> str:
        # A collapsing cylinder limits onto its axis, not a point.
        return "axis line" if self.kind == "cylinder" else "point"


def sphere_geometry(n: int) -> RadialGeometry:
    return RadialGeometry(kind="sphere", n=n)


CYLINDER = RadialGeometry(kind="cylinder")
CIRCLE = RadialGeometry(kind="circle")


@dataclass(frozen=True)
class RegimeReport:
    regime: str                    # ExpandsForever | DipThenExpand |
                                   # ConvergesToPointInfiniteTime | ConvergesToPointFiniteTime
    d_plus: float
    d_minus: float
    T_max: float | None
    label: str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class RadialTrajectory:
    times: np.ndarray
    r: np.ndarray
    r_t: np.ndarray
    extinction_time: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "r", _readonly(self.r))
        object.__setattr__(self, "r_t", _readonly(self.r_t))


@dataclass(frozen=True)
class ForcedRunReport:
    times: np.ndarray
    r: np.ndarray
    r_lo: np.ndarray
    r_hi: np.ndarray
    lower_margin: float     # min(r - r_lo)
    upper_margin: float     # min(r_hi - r)
    tolerance: float

    def __post_init__(self):
        for name in ("times", "r", "r_lo", "r_hi"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


@np.errstate(all="ignore")      # an overflow raises NonFinite instead
def closed_form(lam: float, r0: float, r1: float, t,
                velocity: bool = False) -> float | np.ndarray:
    """r(t) (or r'(t)) of r'' = lam^2 r with r(0) = r0, r'(0) = r1, lam > 0."""
    c_plus = 0.5 * (r0 + r1 / lam)
    c_minus = 0.5 * (r0 - r1 / lam)
    t = np.asarray(t, dtype=float)
    grow = c_plus * np.exp(lam * t)
    decay = c_minus * np.exp(-lam * t)
    out = lam * (grow - decay) if velocity else grow + decay
    if not np.all(np.isfinite(out)):
        raise NonFinite("the radial closed form overflows double precision")
    return float(out) if out.ndim == 0 else out


def closed_form_radius(geometry: RadialGeometry, r0: float, r1: float, t) -> float | np.ndarray:
    """Exact solution; may be <= 0 past the extinction time (caller's concern)."""
    return closed_form(geometry.lam, r0, r1, t)


def closed_form_velocity(geometry: RadialGeometry, r0: float, r1: float, t) -> float | np.ndarray:
    return closed_form(geometry.lam, r0, r1, t, velocity=True)


def _check_initial(r0: float, r1: float) -> None:
    if not 0.0 < r0 < math.inf:
        raise InvalidInitialRadius(f"initial radius must be positive and finite, got {r0}")
    if not math.isfinite(r1):
        raise InvalidInitialRadius("initial velocity must be finite")


def classify_regime(geometry: RadialGeometry, r0: float, r1: float) -> RegimeReport:
    """Decide the fate of the closed-form solution from the discriminants."""
    _check_initial(r0, r1)
    lam = geometry.lam
    d_plus = r0 + r1 / lam
    d_minus = r0 - r1 / lam
    target = geometry.degenerate_target()
    flags: tuple[str, ...] = ()

    # Exact borderline data rarely survives floating-point construction;
    # treat a relatively tiny d+ as zero.
    zero_scale = _ZERO_DISCRIMINANT_RTOL * (abs(r0) + abs(r1) / lam)
    if abs(d_plus) <= zero_scale:
        regime = "ConvergesToPointInfiniteTime"
        T_max = None
        label = f"converges to a {target} as t -> infinity (r = r0 e^(-lam t))"
    elif d_plus > 0.0 and r1 >= 0.0:
        regime = "ExpandsForever"
        T_max = None
        label = "radius increases from t = 0 and expands forever"
    elif d_plus > 0.0:
        regime = "DipThenExpand"
        T_max = None
        label = "radius strictly decreases, then turns around and expands forever"
    else:
        regime = "ConvergesToPointFiniteTime"
        T_max = 0.5 / lam * math.log((r1 / lam - r0) / (r1 / lam + r0))
        label = f"shrinks to a {target} at the finite horizon T_max"
        if geometry.kind == "cylinder":
            flags = (CYLINDER_HALF_FACTOR_FLAG,)

    return RegimeReport(regime=regime, d_plus=d_plus, d_minus=d_minus,
                        T_max=T_max, label=label, flags=flags)


def _rk4_step(r: float, v: float, omega_sq: Callable[[float], float],
              t: float, dt: float) -> tuple[float, float]:
    # One classical step of (r, v)' = (v, omega_sq(t) * r).
    k1r = v
    k1v = omega_sq(t) * r
    k2r = v + 0.5 * dt * k1v
    k2v = omega_sq(t + 0.5 * dt) * (r + 0.5 * dt * k1r)
    k3r = v + 0.5 * dt * k2v
    k3v = omega_sq(t + 0.5 * dt) * (r + 0.5 * dt * k2r)
    k4r = v + dt * k3v
    k4v = omega_sq(t + dt) * (r + dt * k3r)
    return (r + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
            v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def _hermite_r(r0, v0, r1, v1, dt, tau):
    # Cubic Hermite dense output for r on one accepted step, tau in [0, dt].
    s = tau / dt
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s**2 * (3 - 2 * s)
    h11 = s**2 * (s - 1)
    return h00 * r0 + h10 * dt * v0 + h01 * r1 + h11 * dt * v1


def _check_run(r0: float, r1: float, dt: float, t_end: float) -> None:
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise InvalidConfig("step and horizon must be positive and finite")
    _check_initial(r0, r1)


def _march(omega_sq: Callable[[float], float], r0: float, r1: float,
           dt: float, t_end: float, steps: int | None = None) -> np.ndarray:
    """RK4 samples of r'' = omega_sq(t) r from (r0, r1), one row [t, r, r_t] each.

    Checks the inputs and the step budget, then steps h = min(dt, t_end - t)
    to t_end, stopping after the first r <= 0, or takes exactly `steps` steps.
    """
    _check_run(r0, r1, dt, t_end)
    count = fixed_step_count(dt, t_end) if steps is None else steps
    out = np.empty((count + 1, 3))
    t, r, v = out[0] = 0.0, r0, r1
    for k in range(1, count + 1):
        h = min(dt, t_end - t)
        r, v = _rk4_step(r, v, omega_sq, t, h)
        t += h
        if not (math.isfinite(r) and math.isfinite(v)):
            raise NonFinite(f"the radial march overflows double precision at t = {t}")
        out[k] = t, r, v
        if r <= 0.0 and steps is None:
            return out[:k + 1]
    return out


def integrate_radial_ode(geometry: RadialGeometry, r0: float, r1: float,
                         dt: float, t_end: float) -> RadialTrajectory:
    """Classical 4th-order integration of r'' = stiffness * r.

    Halts early with an extinction marker when r crosses zero; the crossing
    time is refined by bisection on the cubic Hermite dense output of the
    offending step, to flow._BISECT_TOL (1e-6) in t.
    """
    rows = _march(lambda _t, w=geometry.stiffness: w, r0, r1, dt, t_end)
    extinction = None
    if rows[-1, 1] <= 0.0:
        (t, ra, va), (_, rb, vb) = rows[-2:].tolist()
        extinction = t + _bisect_zero(ra, va, rb, vb, min(dt, t_end - t))
        rows = rows[:-1]
    return RadialTrajectory(times=rows[:, 0], r=rows[:, 1], r_t=rows[:, 2],
                            extinction_time=extinction)


def _bisect_zero(r0, v0, r1, v1, dt) -> float:
    lo, hi = 0.0, dt
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _hermite_r(r0, v0, r1, v1, dt, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def forced_radial(geometry: RadialGeometry, c: Callable[[float], float],
                  c_lo: float, c_hi: float, r0: float, r1: float,
                  dt: float, t_end: float) -> ForcedRunReport:
    """Integrate r'' = (stiffness + c(t)) r and its constant-c brackets.

    The bracket solutions freeze c at c_lo / c_hi; the comparison principle
    gives r_lo <= r <= r_hi while r stays positive, and a violation beyond
    tolerance signals an integrator bug, not a modeling outcome.
    """
    _check_run(r0, r1, dt, t_end)              # ahead of the forcing bounds
    if not (math.isfinite(c_lo) and math.isfinite(c_hi) and c_lo <= c_hi):
        raise InvalidForcing(f"invalid forcing bounds [{c_lo}, {c_hi}]")
    stiffness = geometry.stiffness

    def omega_forced(t):
        value = c(t)
        if not math.isfinite(value):
            raise InvalidForcing(f"forcing sampled non-finite at t = {t}")
        if value < c_lo - 1e-12 or value > c_hi + 1e-12:
            raise InvalidForcing(
                f"forcing value {value} at t = {t} leaves [{c_lo}, {c_hi}]")
        return stiffness + value

    # The brackets take as many steps as the forced row, past zeros of their own.
    times, r = _march(omega_forced, r0, r1, dt, t_end)[:, :2].T
    r_lo, r_hi = (_march(lambda _t, w=stiffness + cb: w, r0, r1, dt, t_end, len(times) - 1)[:, 1]
                  for cb in (c_lo, c_hi))
    tolerance = 1e-8 * float(np.max(r_hi))
    lower = float(np.min(r - r_lo))
    upper = float(np.min(r_hi - r))
    if lower < -tolerance or upper < -tolerance:
        raise BracketViolation(
            f"bracket invariant violated: min(r - r_lo) = {lower:.3e}, "
            f"min(r_hi - r) = {upper:.3e}, tolerance {tolerance:.3e}")
    return ForcedRunReport(times=times, r=r, r_lo=r_lo, r_hi=r_hi,
                           lower_margin=lower, upper_margin=upper,
                           tolerance=tolerance)
