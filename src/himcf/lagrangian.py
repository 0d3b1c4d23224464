"""Lagrangian solver: vertices carried along their outward normals.

The normal form of the flow moves each boundary point with

    dP/dt = sigma * nu(P),      dsigma/dt = 1/k(P),

nu and k read off the polygon itself (chord tangents, circumscribed-circle
curvature), all from one PolygonGeometry pass (P padded by a vertex at each
end, each edge and its length formed once) that a curve caches as
PlaneCurve.derivatives: validating an accepted step computes it, and the CFL
bound, the next first stage and the final record reuse it.  The pass keeps
no curvature or frame; each is formed when read, and a stage reads each once.
The CFL bound differences sigma on one copy padded the same way.  No tangential
motion is prescribed, so vertices slowly cluster; every RESAMPLE_INTERVAL
accepted steps they are respaced to equal arc length, sigma with them.

This solver shares no discretization with the support-PDE solver, which is
the point: agreement of the two is the module's strongest correctness check.
What the two do share is the stepping policy (flow.integrate: the step
rule, bisection of a violating step, the snapshot cadence; adaptive steps
here take LAGRANGIAN_CFL_SAFETY times lagrangian_cfl_bound) and classical
RK4 (flow.rk4), here on the curve packed as one array [P.ravel(), sigma],
whose P and sigma are contiguous views; that packed row is also what a
trajectory records, and the resampling runs as integrate's after_accept hook.
"""
from __future__ import annotations

from operator import attrgetter

import numpy as np

from .curves import PolygonGeometry, require_edge_lengths, resample_equal_arclength
from .errors import DegenerateEdge, InvalidConfig, NotConvex
from .flow import LENGTH_VANISH_REL, FlowConfig, FlowTrajectory, _Violation, integrate, rk4
from .report import margin_record
from .support import PlaneCurve, unpack_curve

RESAMPLE_INTERVAL = 50
LAGRANGIAN_CFL_SAFETY = 0.5       # adaptive Lagrangian steps


def _velocity(g: PolygonGeometry, sigma: np.ndarray) -> np.ndarray:
    """Packed rates [sigma * nu, 1/k] of a stage polygon, with degeneracy checks."""
    require_edge_lengths(g.lengths)
    k = g.curvature
    if np.minimum.reduce(k) <= 0.0:
        raise NotConvex(f"non-positive discrete curvature at vertex {int(np.argmin(k))}")
    rates = np.empty(3 * sigma.size)
    P_rate, sigma_rate = unpack_curve(rates)
    np.multiply(sigma[:, None], g.frame[1], out=P_rate)
    np.divide(1.0, k, out=sigma_rate)
    return rates


def _rhs(y: np.ndarray) -> np.ndarray:
    P, sigma = unpack_curve(y)
    return _velocity(PolygonGeometry(P), sigma)


def tangential_velocity_max(P: np.ndarray, sigma: np.ndarray) -> float:
    """Largest |<vertex velocity, unit tangent>| on polygons P (..., M, 2) with speeds sigma.

    The prescribed velocity is sigma * nu, so for an honest normal flow this
    is floating-point noise; a nonzero value would mean tangential drift.
    """
    T, nu = PolygonGeometry(P).frame
    vel = sigma[..., None] * nu
    return float(np.max(np.abs(np.sum(vel * T, axis=-1))))


def step_lagrangian(c: PlaneCurve, dt: float) -> PlaneCurve:
    """One classical 4th-order step of P' = sigma*nu(P), sigma' = 1/k(P)."""
    if not dt > 0.0:
        raise InvalidConfig(f"dt must be positive, got {dt}")
    y = rk4(_rhs, c.packed, dt, _velocity(c.derivatives, c.sigma))
    P, sigma = unpack_curve(y)
    return PlaneCurve(P=P, sigma=sigma, t=c.t + dt)


def lagrangian_cfl_bound(c: PlaneCurve) -> float:
    """Characteristic bound transported to the polygon.

    In the normal-angle chart the speeds are |k sigma~_theta| + 1 per grid
    spacing dtheta; on the polygon dtheta becomes the turning angle and
    k sigma~_theta the arc-length derivative of sigma.
    """
    g = c.derivatives
    padded = np.concatenate((c.sigma[-1:], c.sigma, c.sigma[:1]))
    # Central difference over the two adjacent edges: vertex i-1 to i+1.
    sigma_s = (padded[2:] - padded[:-2]) / (g.lengths + g.prev_lengths)
    speed = float(np.maximum.reduce(np.abs(sigma_s))) + 1.0
    return float(np.minimum.reduce(g.turning_angles)) / speed


def _validate_curve(c: PlaneCurve, eps: float, L0: float) -> _Violation | None:
    # The polygon form of validate_support_state: k >= 1/eps is CurvatureBlowup.
    g = c.derivatives
    if g.length <= LENGTH_VANISH_REL * L0:
        return _Violation("LengthVanished")
    try:
        k = g.curvature
    except DegenerateEdge:
        return _Violation("ConvexityLost")
    if np.minimum.reduce(k) <= 0.0:
        return _Violation("ConvexityLost")
    if np.maximum.reduce(k) >= 1.0 / eps:
        return _Violation("CurvatureBlowup")
    return None


def _resample_every_interval(c: PlaneCurve, steps: int) -> PlaneCurve:
    if steps % RESAMPLE_INTERVAL:
        return c
    P_new, (sigma_new,) = resample_equal_arclength(c.P, [c.sigma])
    return PlaneCurve(P=P_new, sigma=sigma_new, t=c.t)


# As in run_support_flow, non-finite values raise NonFinite on their own.
@np.errstate(all="ignore")
def run_lagrangian_flow(curve: PlaneCurve, cfg: FlowConfig) -> FlowTrajectory:
    """Integrate the normal flow from curve, whose sigma is the initial normal speed.

    Stepping, recording and termination (horizon, convexity loss, length
    vanishing, curvature blowup, with violating steps bisected to the
    boundary) are flow.integrate's, as for the support solver.
    """
    _velocity(curve.derivatives, curve.sigma)    # raises on degenerate/non-convex data

    L0 = curve.derivatives.length
    eps = cfg.convexity_floor(L0)
    [(times, data, termination, curve, _)] = integrate(
        [curve], curve.t, cfg, lagrangian_cfl_bound,
        lambda cs, h: [step_lagrangian(c, h) for c in cs],
        [lambda cand: _validate_curve(cand, eps, L0)], attrgetter("packed"),
        LAGRANGIAN_CFL_SAFETY, _resample_every_interval)

    k_final = curve.derivatives.curvature
    monitor = (
        margin_record("run-convexity-floor", float(np.min(k_final)),
                      tolerance=0.0,
                      note="final discrete curvature stays positive"),
    )
    return FlowTrajectory(times, data, termination, monitor)
