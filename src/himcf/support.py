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
from .grids import TWO_PI, AngleGrid, _readonly, periodic_derivative, support_derivatives

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
    grids.support_derivatives.  center is the point the support values are
    measured about; it is only nonzero for states produced by curve_to_support
    on input whose origin was not interior (the recorded recentering shift).
    """

    grid: AngleGrid
    S: np.ndarray
    V: np.ndarray
    t: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)
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

    @cached_property
    def derivatives(self) -> np.ndarray:
        """[S'' + S, V_theta] as a read-only (2, N) array, computed once per state.

        The state is immutable, so the flow solver's validation of a
        candidate also supplies its next CFL bound and first RK4 stage; a
        stepped batch fills each member's pair from one stacked kernel call.
        flow.integrate drops the pair once the state is superseded, so
        recorded snapshots hold S and V only.
        """
        d = support_derivatives(self.sv)
        d.setflags(write=False)
        return d

    def curvature_denominator(self) -> np.ndarray:
        """S'' + S, the reciprocal curvature, from the kernel without caching the pair."""
        return support_derivatives(self.sv)[0]


@dataclass(frozen=True)
class PlaneCurve:
    """Closed discrete convex curve: vertex positions and normal speeds.

    Vertices are ordered counterclockwise; index arithmetic is modulo the
    vertex count.
    """

    P: np.ndarray       # (M, 2) vertex positions
    sigma: np.ndarray   # (M,) normal velocity per vertex
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "P", _readonly(self.P))
        object.__setattr__(self, "sigma", _readonly(self.sigma))
        if self.P.ndim != 2 or self.P.shape[1] != 2 or self.P.shape[0] < 3:
            raise ValueError("P must be (M, 2) with M >= 3")
        if self.sigma.shape != (self.P.shape[0],):
            raise ValueError("sigma must have one entry per vertex")
        if not (np.all(np.isfinite(self.P)) and np.all(np.isfinite(self.sigma))):
            raise NonFinite(f"non-finite curve data at t = {self.t}")

    @property
    def M(self) -> int:
        return self.P.shape[0]

    @cached_property
    def derivatives(self) -> PolygonGeometry:
        """P's geometry pass, kept and dropped as SupportState.derivatives is."""
        return PolygonGeometry(self.P)


def convexity_check(s: SupportState) -> np.ndarray:
    """Return S''+S, raising ConvexityLost if any sample is <= default_eps_convex(L)."""
    eps = default_eps_convex(length_from_support(s))
    rho = s.curvature_denominator()
    if np.min(rho) <= eps:
        j = int(np.argmin(rho))
        theta_j = float(s.grid.theta[j])
        raise ConvexityLost(f"S''+S = {rho[j]:.3e} <= {eps:.3e} near theta = {theta_j:.4f}",
                            t=s.t, theta=theta_j)
    return rho


def curvature_from_support(s: SupportState) -> np.ndarray:
    """Pointwise curvature k = 1/(S'' + S)."""
    return 1.0 / convexity_check(s)


def length_from_support(s: SupportState) -> float:
    """Curve length: the trapezoid (here: exact spectral) quadrature of S."""
    return TWO_PI * float(s.S.mean())


def support_to_curve(s: SupportState) -> PlaneCurve:
    """Reconstruct the boundary polygon at the grid's normal angles."""
    convexity_check(s)
    theta = s.grid.theta
    Sp = periodic_derivative(s.S, 1)
    cx, cy = s.center
    x = s.S * np.cos(theta) - Sp * np.sin(theta) + cx
    y = s.S * np.sin(theta) + Sp * np.cos(theta) + cy
    return PlaneCurve(P=np.column_stack([x, y]), sigma=s.V, t=s.t)


def _point_in_convex(P: np.ndarray, q: np.ndarray) -> bool:
    # Strict interiority wrt every edge half-plane of a CCW convex polygon.
    e = PolygonGeometry(P).edges
    rel = q[None, :] - P
    cross = e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0]
    return bool(np.all(cross > 0.0))


def _trig_eval(coeff: np.ndarray, weights: np.ndarray, freq: np.ndarray,
               a: float, order: int = 0) -> float:
    phase = np.exp(1j * freq * a) * (1j * freq) ** order
    return float(np.real(np.sum(weights * coeff * phase)))


def curve_to_support(c: PlaneCurve, grid: AngleGrid, *, recenter: bool = True) -> SupportState:
    """Sample the support function of a convex polygon on a normal-angle grid.

    For each grid angle the integer arg-max of <P_i, nu> is refined by a local
    quadratic fit; on smoothly sampled curves the fit seeds a Newton polish on
    the trigonometric interpolant of the vertex coordinates, which recovers
    the smooth curve's support to near machine precision.  If Newton cannot be
    trusted (non-negative local second derivative, or no convergence, as on
    coarse polygonal data) the quadratic value is kept.

    The returned state has V = 0; velocities are the caller's to supply.
    """
    P = np.asarray(c.P, dtype=float)
    if np.min(PolygonGeometry(P).cross) <= 0.0:
        raise NotConvex("input polygon is not strictly convex (CCW)")

    shift = np.zeros(2)
    origin = np.zeros(2)
    if not _point_in_convex(P, origin):
        if not recenter:
            raise OriginNotInterior("origin is not strictly inside the curve")
        shift = P.mean(axis=0)
        P = P - shift
        if not _point_in_convex(P, origin):
            raise OriginNotInterior("centroid recentering failed to give an interior origin")

    M = P.shape[0]
    fx = np.fft.rfft(P[:, 0])
    fy = np.fft.rfft(P[:, 1])
    freq = np.fft.rfftfreq(M, d=1.0 / M)
    weights = np.full(freq.shape, 2.0 / M)
    weights[0] = 1.0 / M
    if M % 2 == 0:
        weights[-1] = 1.0 / M

    theta = grid.theta
    S = np.empty(grid.N)
    for j in range(grid.N):
        nu = (np.cos(theta[j]), np.sin(theta[j]))
        g = P[:, 0] * nu[0] + P[:, 1] * nu[1]
        i = int(np.argmax(g))
        gm, g0, gp = g[i - 1], g[i], g[(i + 1) % M]
        denom = 2.0 * g0 - gp - gm
        if denom > 0.0:
            value = g0 + (gp - gm) ** 2 / (8.0 * denom)
            offset = 0.5 * (gp - gm) / denom
        else:
            value = g0
            offset = 0.0

        coeff = fx * nu[0] + fy * nu[1]
        a = TWO_PI * (i + offset) / M
        converged = False
        for _ in range(8):
            d1 = _trig_eval(coeff, weights, freq, a, order=1)
            d2 = _trig_eval(coeff, weights, freq, a, order=2)
            if d2 >= 0.0:
                break
            step = d1 / d2
            a -= step
            if abs(step) < 1e-14:
                converged = True
                break
        if converged and abs(a - TWO_PI * i / M) <= 1.5 * TWO_PI / M:
            polished = _trig_eval(coeff, weights, freq, a)
            # Newton may only improve on the quadratic fit, never undercut the
            # attained discrete maximum.
            if polished >= g0:
                value = polished
        S[j] = value

    return SupportState(grid=grid, S=S, V=np.zeros(grid.N), t=c.t,
                        center=(float(shift[0]), float(shift[1])))
