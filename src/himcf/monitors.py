"""Executable checks of the flow's structural identities and predicted fates.

Four families:

  * containment of one convex solution inside another (pointwise support
    ordering under ordered initial data and speeds),
  * the two length identities  dL/dt = integral of sigma~ dtheta  and
    d^2L/dt^2 = integral of [k sigma~_theta^2 + 1/k] dtheta,
  * long-time / finite-time outcome classification from the initial
    curvature extremes and speed extremes, with the comparison horizon
        T* = (1/2) ln((-1 + delta f_max)/(1 + delta f_max)),
  * residuals of the sphere evolution identities (metric acceleration and
    mean-curvature acceleration) and of the Simons-type contraction.

The curvature evolution equation monitored by curvature_evolution_residual
carries the coefficient -2 k_theta^2 / k; the alternative -2 k_theta^2 / k^3
fails an independent symbolic derivation (see tests) and is not used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidConfig, OutOfDomain, PreconditionFailed
from .flow import FlowTrajectory
from .grids import TWO_PI, AngleGrid, periodic_derivative, support_derivatives
from .radial import classify_regime, closed_form_radius, closed_form_velocity, sphere_geometry
from .report import CheckRecord, margin_record, residual_record
from .support import support_lengths

# k_theta^2 coefficient of the curvature evolution equation, fixed by the
# symbolic jet-space derivation in the test suite: -C * k_theta^2 / k**P.
KTT_COEFFICIENT_C = 2.0
KTT_COEFFICIENT_P = 1


@dataclass(frozen=True)
class OutcomeInputs:
    """Initial-data scalars driving the outcome classification."""

    delta: float        # min initial curvature
    zeta: float         # max initial curvature
    f_min: float
    f_max: float

    def __post_init__(self):
        if not (0.0 < self.delta <= self.zeta):
            raise InvalidConfig(f"need 0 < delta <= zeta, got {self.delta}, {self.zeta}")
        if not self.f_min <= self.f_max:
            raise InvalidConfig("need f_min <= f_max")

    @property
    def T_star(self) -> float | None:
        """comparison_horizon(delta, f_max) when 1/delta + f_max < 0, else None."""
        if 1.0 / self.delta + self.f_max < 0.0:
            return comparison_horizon(self.delta, self.f_max)
        return None


@dataclass(frozen=True)
class OutcomeReport:
    predicted: str                  # LongTime | FiniteTime | Indeterminate
    observed_termination: str
    observed_t: float
    agreement: bool
    T_star: float | None = None
    sub_label: str | None = None    # PointCollapse | CurvatureJump for finite ends
    note: str = ""


def comparison_horizon(delta: float, f_max: float) -> float:
    """T* for the shrinking case 1/delta + f_max < 0 (circle comparison)."""
    if not 1.0 / delta + f_max < 0.0:
        raise InvalidConfig("comparison horizon requires 1/delta + f_max < 0")
    return 0.5 * math.log((-1.0 + delta * f_max) / (1.0 + delta * f_max))


def outcome_inputs_from_trajectory(traj: FlowTrajectory) -> OutcomeInputs:
    """Extract delta, zeta and the f extremes at t = 0; T* follows from them."""
    k0, speeds = traj.curvature(0), traj.speeds(0)
    return OutcomeInputs(delta=float(np.min(k0)), zeta=float(np.max(k0)),
                         f_min=float(np.min(speeds)), f_max=float(np.max(speeds)))


def aligned_prefix(outer: FlowTrajectory, inner: FlowTrajectory) -> int:
    """Length of the longest snapshot prefix whose times agree to 1e-9.

    A run that ends by bisection appends one off-schedule snapshot, so two
    runs on one recording schedule need not align on all snapshots.
    """
    m = min(len(outer.times), len(inner.times))
    # The first True of the mismatches, a True appended as the sentinel.
    return int(np.argmax(np.append(np.abs(outer.times[:m] - inner.times[:m]) > 1e-9, True)))


def require_ordered_start(outer: np.ndarray, inner: np.ndarray) -> None:
    """PreconditionFailed unless rows [S, V] at t = 0 have S_in <= S_out and V_in <= V_out."""
    (S_out, V_out), (S_in, V_in) = outer, inner
    if np.max(S_in - S_out) > 1e-12 * float(np.max(np.abs(S_out))):
        raise PreconditionFailed("inner curve does not start inside the outer")
    if np.max(V_in - V_out) > 1e-12 * max(1.0, float(np.max(np.abs(V_out)))):
        raise PreconditionFailed("inner speed is not pointwise <= outer speed at t = 0")


def check_containment(outer: FlowTrajectory, inner: FlowTrajectory) -> CheckRecord:
    """Pointwise support ordering S_inner <= S_outer across the common run.

    Preconditions (raised as PreconditionFailed when absent): support
    trajectories on one shared grid, aligned snapshot times, and the t = 0
    hypotheses S_in <= S_out and V_in <= V_out pointwise.
    """
    if not (outer.is_support and inner.is_support):
        raise PreconditionFailed("containment check needs support trajectories")
    N = outer.data.shape[-1]
    if inner.data.shape[-1] != N:
        raise PreconditionFailed("trajectories use different grids")
    m = aligned_prefix(outer, inner)
    if m < 2:
        raise PreconditionFailed(
            "snapshot schedules never align; the runner must share the "
            "recording schedule")

    require_ordered_start(outer.data[0], inner.data[0])

    # The first smallest gap in (snapshot, angle) order is the worst one.
    S_out = outer.data[:m, 0]
    gap = S_out - inner.data[:m, 0]
    i, j = np.unravel_index(np.argmin(gap), gap.shape)
    return margin_record("containment", float(gap[i, j]),
                         tolerance=1e-6 * float(np.max(np.abs(S_out))),
                         t_worst=float(outer.times[i]), theta_worst=float(AngleGrid(N).theta[j]))


def _uniform_prefix(times: np.ndarray) -> int:
    """Length of the longest uniformly spaced snapshot prefix (spacing equal to 1e-9 relative)."""
    if times.size < 2:
        return times.size
    d = np.diff(times)
    return 1 + int(np.argmax(np.append(np.abs(d - d[0]) > 1e-9 * max(d[0], 1e-300), True)))


def check_length_identities(traj: FlowTrajectory) -> tuple[CheckRecord, CheckRecord]:
    """Residuals of dL/dt and d^2L/dt^2 against their curvature integrals.

    Time derivatives are central differences over the uniformly spaced
    snapshot prefix; at least 5 such snapshots are required.
    """
    if not traj.is_support:
        raise InvalidConfig("length identities need a support trajectory")
    times = traj.times
    m = _uniform_prefix(times)
    if m < 5:
        raise InsufficientData(
            f"need >= 5 uniformly spaced snapshots, found {m} "
            "(non-uniform spacing truncates the usable prefix)")
    sv = traj.data[:m]
    dt = times[1] - times[0]
    L = support_lengths(sv[:, 0])
    dtheta = TWO_PI / sv.shape[-1]
    # Residuals at the interior snapshots 1 .. m-2.
    rho, V_th = np.moveaxis(support_derivatives(sv)[1:-1], 1, 0)
    r1 = np.abs((L[2:] - L[:-2]) / (2.0 * dt) - np.sum(sv[1:-1, 1], axis=-1) * dtheta)
    r2 = np.abs((L[2:] - 2.0 * L[1:-1] + L[:-2]) / dt**2
                - np.sum(1.0 / rho * V_th**2 + rho, axis=-1) * dtheta)

    def record(name, r, tolerance):
        i = int(np.argmax(r))
        return residual_record(name, float(r[i]), tolerance=tolerance,
                               t_worst=float(times[i + 1]) if r[i] > 0.0 else None)

    L_scale = float(np.max(L))
    return (record("length-identity-first", r1, 1e-3 * L_scale),
            record("length-identity-second", r2, 1e-2 * L_scale))


def classify_outcome(traj: FlowTrajectory, inputs: OutcomeInputs) -> OutcomeReport:
    """Predict the fate from initial data and compare with what happened.

    LongTime when 1/zeta + f_min > 0; FiniteTime (with horizon bound T*)
    when 1/delta + f_max < 0; Indeterminate otherwise.  Finite terminations
    are sub-labeled PointCollapse when the length went to zero and
    CurvatureJump when curvature degenerated at positive length.
    """
    T_star = inputs.T_star      # None unless 1/delta + f_max < 0
    if 1.0 / inputs.zeta + inputs.f_min > 0.0:
        predicted = "LongTime"
    elif T_star is not None:
        predicted = "FiniteTime"
    else:
        predicted = "Indeterminate"

    term = traj.termination
    finite_end = term.kind in ("LengthVanished", "CurvatureBlowup", "ConvexityLost")
    sub_label = None
    if finite_end:
        if term.kind == "LengthVanished" or traj.length(-1) <= 0.05 * traj.length(0):
            sub_label = "PointCollapse"
        else:
            sub_label = "CurvatureJump"

    if predicted == "LongTime":
        agreement = term.kind == "HorizonReached"
        note = "" if agreement else "predicted long-time existence but the run degenerated"
    elif predicted == "FiniteTime":
        # Only surviving PAST T* contradicts the bound T_max <= T*; a run
        # whose horizon ends before T* leaves the prediction untested.
        if finite_end:
            agreement = term.t <= T_star + 1e-2
            note = ("" if agreement else
                    f"terminated at t = {term.t:.6f}, past the comparison "
                    f"horizon T* = {T_star:.6f}")
        elif term.t <= T_star + 1e-2:
            agreement = True
            note = (f"run horizon {term.t:.6f} ends before T* = {T_star:.6f}; "
                    "prediction consistent but untested")
        else:
            agreement = False
            note = f"survived to t = {term.t:.6f}, past T* = {T_star:.6f}"
    else:
        agreement = True
        note = "hypotheses of neither case hold; any fate is consistent"

    return OutcomeReport(predicted=predicted, observed_termination=term.kind,
                         observed_t=term.t, agreement=agreement,
                         T_star=T_star, sub_label=sub_label, note=note)


def _sphere_domain_check(n: int, r0: float, r1: float, t: float) -> None:
    if t < 0.0:
        raise OutOfDomain("t must be nonnegative")
    report = classify_regime(sphere_geometry(n), r0, r1)
    if report.T_max is not None and t >= report.T_max:
        raise OutOfDomain(
            f"t = {t} is at or past the extinction horizon T_max = {report.T_max:.6f}")


def metric_acceleration_residual(n: int, r0: float, r1: float, t: float,
                                       method: str = "closed_form",
                                       dt: float = 1e-4) -> float:
    """Residual of d^2(g_ij)/dt^2 = 2 H^{-1} h_ij + 2 <dX/dtdx_i, dX/dtdx_j>.

    On the round sphere both sides are multiples of the sphere metric; in
    normal coordinates at a point the max-norm residual is the coefficient
    difference |(2 r_t^2 + 2 r r_tt) - (2 r^2/n + 2 r_t^2)| with r_tt = r/n.
    method "finite_difference" replaces the left side by a second central
    difference of g(t) = r(t)^2.
    """
    _sphere_domain_check(n, r0, r1, t)
    geom = sphere_geometry(n)
    r = closed_form_radius(geom, r0, r1, t)
    r_t = closed_form_velocity(geom, r0, r1, t)
    rhs = 2.0 * r * r / n + 2.0 * r_t * r_t
    if method == "closed_form":
        lhs = 2.0 * r_t * r_t + 2.0 * r * (r / n)
    elif method == "finite_difference":
        g = lambda s: closed_form_radius(geom, r0, r1, s) ** 2
        lhs = (g(t + dt) - 2.0 * g(t) + g(t - dt)) / dt**2
    else:
        raise InvalidConfig(f"unknown method {method!r}")
    return abs(lhs - rhs)


def mean_curvature_acceleration_residual(n: int, r0: float, r1: float, t: float,
                                          method: str = "closed_form",
                                          dt: float = 1e-4) -> float:
    """Residual of the mean-curvature acceleration identity on the sphere.

    Assembles the right side term by term in normal coordinates (sigma = I):
    Laplacian and gradient of H vanish, |A|^2 = n/r^2, <X_ti, X_tj> =
    r_t^2 sigma_ij, <nu, X_ti> = 0, dg/dt = 2 r r_t sigma, dh/dt = r_t sigma,
    dGamma/dt = 0; the surviving contractions sum to -1/r + 2n r_t^2/r^3,
    which must equal H_tt for H = n/r.
    """
    _sphere_domain_check(n, r0, r1, t)
    geom = sphere_geometry(n)
    r = closed_form_radius(geom, r0, r1, t)
    r_t = closed_form_velocity(geom, r0, r1, t)

    eye = np.eye(n)
    H = n / r
    A2 = n / r**2
    g_inv = eye / r**2
    h = r * eye
    dg = 2.0 * r * r_t * eye
    dh = r_t * eye
    xt2 = r_t**2 * eye          # <X_ti, X_tj>

    lap_H = 0.0
    grad_H_sq = 0.0
    term_diffusion = H**-2 * lap_H - 2.0 * H**-3 * grad_H_sq
    term_a2 = -(1.0 / H) * A2
    term_gg = 2.0 * float(np.trace(g_inv @ dg @ g_inv @ dg @ g_inv @ h))
    term_gh = -2.0 * float(np.trace(g_inv @ dg @ g_inv @ dh))
    term_xt = -2.0 * float(np.trace(g_inv @ xt2 @ g_inv @ h))
    term_normal = 0.0           # <nu, X_ti> = 0 kills the remaining terms
    assembled = (term_diffusion + term_a2 + term_gg + term_gh + term_xt
                 + term_normal)

    if method == "closed_form":
        r_tt = r / n
        H_tt = n * (2.0 * r_t**2 / r**3 - r_tt / r**2)
    elif method == "finite_difference":
        Hf = lambda s: n / closed_form_radius(geom, r0, r1, s)
        H_tt = (Hf(t + dt) - 2.0 * Hf(t) + Hf(t - dt)) / dt**2
    else:
        raise InvalidConfig(f"unknown method {method!r}")
    return abs(assembled - H_tt)


def check_simons_sphere(n: int, r: float) -> float:
    """Max-norm of the Simons-contraction right side on the round sphere.

    With h = r sigma, g^{-1} = r^{-2} sigma^{-1}, H = n/r, |A|^2 = n/r^2 the
    combination Hessian(H) + H h g^{-1} h - |A|^2 h cancels identically; the
    returned value is pure floating-point noise (<= 1e-12).
    """
    if not (r > 0.0 and n >= 1):
        raise InvalidConfig("need r > 0 and n >= 1")
    # A deliberately non-diagonal SPD coordinate metric exercises the
    # contractions; identity would hide index mistakes.
    w = np.arange(1, n + 1, dtype=float)
    w /= np.linalg.norm(w)
    sigma = np.eye(n) + 0.3 * np.outer(w, w)
    sigma_inv = np.linalg.inv(sigma)

    h = r * sigma
    g_inv = sigma_inv / r**2
    H = n / r
    A2 = n / r**2
    hessian_H = np.zeros((n, n))
    rhs = hessian_H + H * (h @ g_inv @ h) - A2 * h
    return float(np.max(np.abs(rhs)))


def curvature_evolution_residual(traj: FlowTrajectory) -> float:
    """Residual of the curvature acceleration equation along a support run.

    k_tt is formed by second central differences over uniformly spaced
    snapshots; the right side is evaluated spectrally with the oracle-fixed
    k_theta^2 coefficient.  Expected O(snapshot spacing squared + spectral).
    """
    if not traj.is_support:
        raise InvalidConfig("curvature residual needs a support trajectory")
    times = traj.times
    m = _uniform_prefix(times)
    if m < 3:
        raise InsufficientData("need >= 3 uniformly spaced snapshots")
    sv = traj.data[:m]
    dt = times[1] - times[0]
    pairs = support_derivatives(sv)
    ks = 1.0 / pairs[:, 0]
    k = ks[1:-1]
    k_tt = (ks[2:] - 2.0 * k + ks[:-2]) / dt**2
    k_t = (ks[2:] - ks[:-2]) / (2.0 * dt)
    k_th = periodic_derivative(k, 1)
    k_thth = periodic_derivative(k, 2)
    k_tth = periodic_derivative(k_t, 1)
    S_t = sv[1:-1, 1]
    S_tht = pairs[1:-1, 1]
    rhs = (k**2 * (1.0 / k**2 - S_tht**2) * k_thth
           + 2.0 * k * S_tht * k_tth
           + 4.0 * k**2 * S_tht * S_t * k_th
           - KTT_COEFFICIENT_C * k_th**2 / k**KTT_COEFFICIENT_P
           - 4.0 * k * S_t * k_t
           + k**3 * (S_tht**2 - 2.0 * S_t**2 - 1.0 / k**2))
    return float(np.max(np.abs(k_tt - rhs)))
