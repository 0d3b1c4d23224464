"""Lagrangian solver: vertices carried along their outward normals.

The normal form of the flow moves each boundary point with

    dP/dt = sigma * nu(P),      dsigma/dt = 1/k(P),

nu and k read off the polygon itself (chord tangents, circumscribed-circle
curvature).  No tangential motion is prescribed, so vertices slowly cluster;
every RESAMPLE_INTERVAL accepted steps the polygon is redistributed to equal
arc length with sigma transported by periodic cubic interpolation.

This solver shares no discretization with the support-PDE solver, which is
the point: agreement of the two is the module's strongest correctness check.
"""
from __future__ import annotations

import numpy as np

from .curves import (
    curvature_from_edges,
    cyclic_shift,
    discrete_curvature,
    discrete_tangent_normal,
    edge_lengths,
    edge_vectors,
    polygon_length,
    require_edge_lengths,
    resample_equal_arclength,
    turning_angles,
    vector_norms,
)
from .errors import DegenerateEdge, InvalidConfig, NotConvex
from .flow import (
    _MAX_STEPS,
    LENGTH_VANISH_REL,
    FlowConfig,
    FlowTrajectory,
    Termination,
    _Violation,
    bisect_to_violation,
)
from .report import MonitorReport, margin_record
from .support import PlaneCurve, default_eps_convex

RESAMPLE_INTERVAL = 50


def _geometry(P: np.ndarray):
    """Outward normal and curvature with degeneracy checks.

    One pass: the edges and their lengths serve both the collision check
    and the curvature stencil.
    """
    e = edge_vectors(P)
    lengths = vector_norms(e)
    require_edge_lengths(lengths)
    k = curvature_from_edges(e, lengths)
    if np.min(k) <= 0.0:
        raise NotConvex(f"non-positive discrete curvature at vertex {int(np.argmin(k))}")
    _, nu = discrete_tangent_normal(P)
    return nu, k


def _rhs(P: np.ndarray, sigma: np.ndarray):
    nu, k = _geometry(P)
    return sigma[:, None] * nu, 1.0 / k


def tangential_velocity_max(c: PlaneCurve) -> float:
    """Largest |<instantaneous vertex velocity, unit tangent>| on the curve.

    The prescribed velocity is sigma * nu, so for an honest normal flow this
    is floating-point noise; a nonzero value would mean tangential drift.
    """
    T, nu = discrete_tangent_normal(c.P)
    vel = np.asarray(c.sigma)[:, None] * nu
    return float(np.max(np.abs(np.sum(vel * T, axis=1))))


def step_lagrangian(c: PlaneCurve, dt: float) -> PlaneCurve:
    """One classical 4th-order step of P' = sigma*nu(P), sigma' = 1/k(P)."""
    if not dt > 0.0:
        raise InvalidConfig(f"dt must be positive, got {dt}")
    P, s = c.P, c.sigma
    k1P, k1s = _rhs(P, s)
    k2P, k2s = _rhs(P + 0.5 * dt * k1P, s + 0.5 * dt * k1s)
    k3P, k3s = _rhs(P + 0.5 * dt * k2P, s + 0.5 * dt * k2s)
    k4P, k4s = _rhs(P + dt * k3P, s + dt * k3s)
    P_new = P + dt / 6.0 * (k1P + 2.0 * k2P + 2.0 * k3P + k4P)
    s_new = s + dt / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    return PlaneCurve(P=P_new, sigma=s_new, t=c.t + dt)


def lagrangian_cfl_bound(c: PlaneCurve) -> float:
    """Characteristic bound transported to the polygon.

    In the normal-angle chart the speeds are |k sigma~_theta| + 1 per grid
    spacing dtheta; on the polygon dtheta becomes the turning angle and
    k sigma~_theta the arc-length derivative of sigma.
    """
    angles = turning_angles(c.P)
    lengths = edge_lengths(c.P)
    dsig = cyclic_shift(c.sigma, -1, axis=-1) - cyclic_shift(c.sigma, 1, axis=-1)
    # Central difference over the two adjacent edges: vertex i-1 to i+1.
    sigma_s = dsig / (lengths + cyclic_shift(lengths, 1, axis=-1))
    speed = float(np.max(np.abs(sigma_s))) + 1.0
    return float(np.min(angles)) / speed


def _validate_curve(c: PlaneCurve, kappa_max: float, L0: float) -> _Violation | None:
    if polygon_length(c.P) <= LENGTH_VANISH_REL * L0:
        return _Violation("LengthVanished")
    try:
        k = discrete_curvature(c.P)
    except DegenerateEdge:
        return _Violation("ConvexityLost")
    if np.min(k) <= 0.0:
        return _Violation("ConvexityLost")
    if np.max(k) >= kappa_max:
        return _Violation("CurvatureBlowup")
    return None


# As in run_support_flow, non-finite values raise NonFinite on their own.
@np.errstate(all="ignore")
def run_lagrangian_flow(F0: PlaneCurve, f: np.ndarray | float, cfg: FlowConfig) -> FlowTrajectory:
    """Integrate the normal flow from curve F0 with initial speed f.

    f may be a scalar or a per-vertex array; it becomes sigma(., 0).
    Termination mirrors the support solver (horizon, convexity loss, length
    vanishing, curvature blowup), with violating steps bisected to the
    boundary.
    """
    sigma0 = np.broadcast_to(np.asarray(f, dtype=float), (F0.M,)).copy()
    if not np.all(np.isfinite(sigma0)):
        raise InvalidConfig("initial normal speed must be finite")
    curve = PlaneCurve(P=F0.P, sigma=sigma0, t=F0.t)
    _geometry(curve.P)      # raises on degenerate/non-convex initial data

    L0 = polygon_length(curve.P)
    eps = default_eps_convex(L0) if cfg.eps_convex is None else cfg.eps_convex
    kappa_max = 1.0 / eps

    def attempt(c, h):
        try:
            cand = step_lagrangian(c, h)
        except (NotConvex, DegenerateEdge):
            return None, _Violation("ConvexityLost")
        return cand, _validate_curve(cand, kappa_max, L0)

    snapshots = [curve]
    termination = None
    steps = 0
    while True:
        if curve.t >= cfg.t_end - 1e-12:
            termination = Termination("HorizonReached", t=curve.t)
            break
        if steps >= _MAX_STEPS:
            raise InvalidConfig("step budget exhausted before t_end")

        dt = cfg.next_dt(lagrangian_cfl_bound(curve), curve.t)
        trial, violation = attempt(curve, dt)
        if violation is None:
            curve = trial
            steps += 1
            if steps % RESAMPLE_INTERVAL == 0:
                P_new, (sigma_new,) = resample_equal_arclength(
                    curve.P, [curve.sigma])
                curve = PlaneCurve(P=P_new, sigma=sigma_new, t=curve.t)
            if steps % cfg.record_every == 0:
                snapshots.append(curve)
            continue

        good, boundary, t_bad = bisect_to_violation(curve, dt, violation, attempt)
        if good is not None:
            curve = good
        termination = Termination(boundary.kind, t=t_bad, theta=boundary.theta)
        break

    if snapshots[-1].t < curve.t - 1e-15:
        snapshots.append(curve)

    k_final = discrete_curvature(curve.P)
    monitor = MonitorReport(records=(
        margin_record("run-convexity-floor", float(np.min(k_final)),
                      tolerance=0.0,
                      note="final discrete curvature stays positive"),
    ))
    return FlowTrajectory(snapshots=tuple(snapshots), termination=termination,
                          monitor=monitor)
