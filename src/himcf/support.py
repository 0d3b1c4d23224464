"""Support-function states of convex plane curves and the curve conversions.

A strictly convex closed curve is parametrized by its outward normal angle
theta; the support function S(theta) is the distance from the (interior)
origin to the tangent line with normal (cos theta, sin theta).  Key relations:

    boundary point  x = S cos(theta) - S' sin(theta)
                    y = S sin(theta) + S' cos(theta)
    curvature       k = 1/(S'' + S)        (strict convexity: S'' + S > 0)
    length          L = integral of S dtheta   (S'' integrates to zero)

A flow run takes its convexity floor from FlowConfig.convexity_floor; a state
checked outside a run (convexity_check) gets default_eps_convex of its length.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curves import PolygonGeometry
from .errors import ConvexityLost, NonFinite, NotConvex, OriginNotInterior
from .grids import TWO_PI, AngleGrid, periodic_derivative, rfft, support_derivatives

DEFAULT_EPS_CONVEX_REL = 1e-8


def default_eps_convex(length: float) -> float:
    """Default convexity floor of a curve of length L: DEFAULT_EPS_CONVEX_REL * L/(2 pi).

    L/(2 pi) is mean(S) on a support state and the mean circumradius proxy
    of a polygon, so both solvers share the rule.
    """
    return DEFAULT_EPS_CONVEX_REL * length / TWO_PI


@dataclass(frozen=True)
class SupportState:
    """Support samples S, velocity samples V = dS/dt, at flow time t.

    S and V are the rows of one read-only (2, N) array sv, the input shape of
    grids.support_derivatives; S is measured about the origin.
    """

    grid: AngleGrid
    S: np.ndarray
    V: np.ndarray
    t: float = 0.0
    sv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sv = np.array([self.S, self.V], dtype=float)
        sv.setflags(write=False)
        if sv.shape != (2, self.grid.N):
            raise ValueError("S and V must match the grid size")
        if not np.isfinite(sv).all():
            raise NonFinite(f"non-finite support state at t = {self.t}")
        object.__setattr__(self, "sv", sv)
        object.__setattr__(self, "S", sv[0])
        object.__setattr__(self, "V", sv[1])


@dataclass(frozen=True)
class PlaneCurve:
    """Closed discrete convex curve: vertex positions and normal speeds.

    Vertices are ordered counterclockwise; index arithmetic is modulo the
    vertex count.  P and sigma are views of one read-only (3M,) array packed =
    [P.ravel(), sigma], the curve's RK4 state and trajectory row.
    """

    P: np.ndarray       # (M, 2) vertex positions
    sigma: np.ndarray   # (M,) normal velocity per vertex
    t: float = 0.0
    packed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        P, sigma = np.asarray(self.P), np.asarray(self.sigma)
        if P.ndim != 2 or P.shape[1] != 2 or P.shape[0] < 3:
            raise ValueError("P must be (M, 2) with M >= 3")
        if sigma.shape != (P.shape[0],):
            raise ValueError("sigma must have one entry per vertex")
        packed = np.concatenate([P.ravel(), sigma], dtype=float)
        packed.setflags(write=False)
        if not np.isfinite(packed).all():
            raise NonFinite(f"non-finite curve data at t = {self.t}")
        P, sigma = unpack_curve(packed)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "sigma", sigma)

    @property
    def M(self) -> int:
        return self.P.shape[0]

    @cached_property
    def derivatives(self) -> PolygonGeometry:
        """P's geometry pass, once per curve: its check, CFL bound and next stage share it."""
        return PolygonGeometry(self.P)


def unpack_curve(y: np.ndarray):
    """Views P (..., M, 2) and sigma (..., M) of packed rows y (..., 3M) = [P.ravel(), sigma]."""
    M = y.shape[-1] // 3
    return y[..., :2 * M].reshape(y.shape[:-1] + (M, 2)), y[..., 2 * M:]


def convexity_check(s: SupportState) -> np.ndarray:
    """Return S''+S, raising ConvexityLost if any sample is <= default_eps_convex(L)."""
    eps = default_eps_convex(float(support_lengths(s.S)))
    rho = support_derivatives(s.sv)[0]
    if np.min(rho) <= eps:
        j = int(np.argmin(rho))
        theta_j = float(s.grid.theta[j])
        raise ConvexityLost(f"S''+S = {rho[j]:.3e} <= {eps:.3e} near theta = {theta_j:.4f}",
                            theta=theta_j)
    return rho


def support_lengths(S: np.ndarray) -> np.ndarray:
    """Curve length of each row of S (..., N): the trapezoid (here exact) quadrature of S."""
    return TWO_PI * (np.add.reduce(S, axis=-1) / S.shape[-1])


def support_to_curve(s: SupportState) -> PlaneCurve:
    """Reconstruct the boundary polygon at the grid's normal angles."""
    convexity_check(s)
    theta = s.grid.theta
    Sp = periodic_derivative(s.S, 1)
    x = s.S * np.cos(theta) - Sp * np.sin(theta)
    y = s.S * np.sin(theta) + Sp * np.cos(theta)
    return PlaneCurve(P=np.column_stack([x, y]), sigma=s.V, t=s.t)


def _origin_inside(P: np.ndarray) -> bool:
    # Strict interiority of the origin wrt every edge half-plane of a CCW convex polygon.
    e = PolygonGeometry(P).edges
    return bool(np.all(e[:, 1] * P[:, 0] - e[:, 0] * P[:, 1] > 0.0))


def curve_to_support(c: PlaneCurve, grid: AngleGrid) -> SupportState:
    """Sample the support function of a convex polygon on a normal-angle grid.

    For each grid angle the integer arg-max of <P_i, nu> is refined by a local
    quadratic fit; on smoothly sampled curves the fit seeds a Newton polish on
    the trigonometric interpolant of the vertex coordinates, which recovers
    the smooth curve's support to near machine precision.  If Newton cannot be
    trusted (non-negative local second derivative, or no convergence, as on
    coarse polygonal data) the quadratic value is kept.  The origin must lie
    strictly inside the polygon (OriginNotInterior otherwise).

    The returned state has V = 0; velocities are the caller's to supply.
    """
    P = np.asarray(c.P, dtype=float)
    if np.min(PolygonGeometry(P).cross) <= 0.0:
        raise NotConvex("input polygon is not strictly convex (CCW)")
    if not _origin_inside(P):
        raise OriginNotInterior("the origin is not strictly inside the polygon")

    M = P.shape[0]
    fx, fy = rfft(P.T)
    freq = np.fft.rfftfreq(M, d=1.0 / M)
    weights = np.full(freq.shape, 2.0 / M)
    weights[0] = 1.0 / M
    if M % 2 == 0:
        weights[-1] = 1.0 / M

    cos, sin = np.cos(grid.theta)[:, None], np.sin(grid.theta)[:, None]
    g = P[:, 0] * cos + P[:, 1] * sin                      # (N, M): <P_i, nu_j>
    rows = np.arange(grid.N)
    i = np.argmax(g, axis=1)
    gm, g0, gp = g[rows, i - 1], g[rows, i], g[rows, (i + 1) % M]
    denom = 2.0 * g0 - gp - gm
    fit = denom > 0.0
    S = g0 + np.divide((gp - gm) ** 2, 8.0 * denom, out=np.zeros(grid.N), where=fit)
    offset = np.divide(0.5 * (gp - gm), denom, out=np.zeros(grid.N), where=fit)

    wc = weights * (fx * cos + fy * sin)                   # (N, M//2 + 1)
    a = TWO_PI * (i + offset) / M
    converged = np.zeros(grid.N, dtype=bool)
    live = rows
    for _ in range(8):
        phase = np.exp(1j * freq * a[live, None])
        d1 = np.real(np.sum(wc[live] * (phase * (1j * freq)), axis=1))
        d2 = np.real(np.sum(wc[live] * (phase * (1j * freq) ** 2), axis=1))
        concave = ~(d2 >= 0.0)
        live, step = live[concave], d1[concave] / d2[concave]
        a[live] -= step
        small = np.abs(step) < 1e-14
        converged[live[small]] = True
        live = live[~small]
        if live.size == 0:
            break
    near = np.flatnonzero(converged & (np.abs(a - TWO_PI * i / M) <= 1.5 * TWO_PI / M))
    # Newton replaces the quadratic fit but never undercuts the attained
    # discrete maximum (at a vertex it lands an ulp below it).
    polished = np.real(np.sum(wc[near] * np.exp(1j * freq * a[near, None]), axis=1))
    S[near] = np.maximum(polished, g0[near])

    return SupportState(grid=grid, S=S, V=np.zeros(grid.N), t=c.t)
