"""Discrete geometry of closed convex polygons.

Tangents are chord central differences, outward normals their -90 degree
rotation (CCW curves), and curvature the signed circumscribed-circle value of
each vertex triple: exact on uniformly sampled circles, second order on
general smooth curves.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateEdge
from .grids import TWO_PI

if TYPE_CHECKING:
    from .support import PlaneCurve


def cyclic_shift(a: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """Periodic shift, result[i] = a[i - shift] along axis, from two slices."""
    axis %= a.ndim
    cut = -shift % a.shape[axis]
    head = (slice(None),) * axis
    return np.concatenate((a[head + (slice(cut, None),)], a[head + (slice(None, cut),)]),
                          axis=axis)


# The polygon stencils below take P of shape (..., M, 2): one polygon or a
# stack of them, the vertex axis second to last.  Every operation is
# elementwise along the vertex axis, so a stacked call equals the calls on
# each polygon bit for bit.

def edge_vectors(P: np.ndarray) -> np.ndarray:
    return cyclic_shift(P, -1, axis=-2) - P


def vector_norms(v: np.ndarray) -> np.ndarray:
    return np.hypot(v[..., 0], v[..., 1])


def edge_lengths(P: np.ndarray) -> np.ndarray:
    return vector_norms(edge_vectors(P))


def polygon_length(P: np.ndarray) -> float:
    return float(edge_lengths(P).sum())


def discrete_tangent_normal(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangent (chord central difference) and outward unit normal."""
    chord = cyclic_shift(P, -1, axis=-2) - cyclic_shift(P, 1, axis=-2)
    norm = vector_norms(chord)
    if np.min(norm) <= 0.0:
        raise DegenerateEdge("coincident neighbor vertices")
    T = chord / norm[..., None]
    nu = np.stack([T[..., 1], -T[..., 0]], axis=-1)
    return T, nu


def _corners(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Previous edge and the cross product of each consecutive edge pair."""
    e_prev = cyclic_shift(e, 1, axis=-2)
    return e_prev, e_prev[..., 0] * e[..., 1] - e_prev[..., 1] * e[..., 0]


def turning_cross(P: np.ndarray) -> np.ndarray:
    """Cross products of consecutive edge pairs; positive iff locally convex CCW."""
    return _corners(edge_vectors(P))[1]


def discrete_curvature(P: np.ndarray) -> np.ndarray:
    """Signed curvature from the circumscribed circle of each vertex triple."""
    e = edge_vectors(P)
    return curvature_from_edges(e, vector_norms(e))


def curvature_from_edges(e: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """discrete_curvature from the edge vectors and their lengths."""
    e_prev, cross = _corners(e)
    l_prev = cyclic_shift(lengths, 1, axis=-1)
    chord = vector_norms(e_prev + e)
    denom = l_prev * lengths * chord
    if np.min(denom) <= 0.0:
        raise DegenerateEdge("zero-length edge in curvature stencil")
    return 2.0 * cross / denom


def turning_angles(P: np.ndarray) -> np.ndarray:
    """Exterior angle at each vertex; all positive for strictly convex CCW."""
    e = edge_vectors(P)
    e_prev, cross = _corners(e)
    dot = np.sum(e_prev * e, axis=-1)
    return np.arctan2(cross, dot)


def require_nondegenerate(P: np.ndarray) -> None:
    require_edge_lengths(edge_lengths(P))


def require_edge_lengths(lengths: np.ndarray) -> None:
    """DegenerateEdge when an edge of one polygon is below 1e-12 of the mean."""
    mean = float(lengths.mean())
    if np.min(lengths) < 1e-12 * mean:
        raise DegenerateEdge("adjacent vertices collide")


def normal_angles(P: np.ndarray) -> np.ndarray:
    """Unwrapped outward-normal angle per vertex, increasing by 2*pi per loop."""
    _, nu = discrete_tangent_normal(P)
    raw = np.arctan2(nu[..., 1], nu[..., 0])
    return np.unwrap(raw, axis=-1)


def resample_equal_arclength(P: np.ndarray, fields: list[np.ndarray] = (),
                             count: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Redistribute vertices to equal arc-length spacing.

    Positions and the given per-vertex fields are interpolated by one
    periodic cubic spline in the cumulative arc-length parameter.  Vertex
    count is preserved unless count says otherwise; vertex 0 stays fixed.
    """
    s = np.concatenate([[0.0], np.cumsum(edge_lengths(P))])
    targets = np.linspace(0.0, s[-1], count or P.shape[0], endpoint=False)
    values = periodic_spline(s, np.column_stack([P, *fields]), targets)
    return values[:, :2], list(values[:, 2:].T)


def periodic_spline(x: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Periodic C2 cubic spline through the knots (x[i], y[i]), evaluated at xq.

    x holds M + 1 increasing knots, the last one closing the period, and y
    holds the M knot values before it (rows; any trailing channel axes).
    Queries should lie in [x[0], x[M]].  The knot slopes s solve the cyclic
    tridiagonal system

        h_i s_(i-1) + 2 (h_(i-1) + h_i) s_i + h_(i-1) s_(i+1)
            = 3 (h_i slope_(i-1) + h_(i-1) slope_i),      h_i = x[i+1] - x[i],

    by Thomas elimination of the first M - 1 rows for two right sides (the
    data and the column of s_(M-1)), after which the last row gives s_(M-1):
    the rank-one correction that closes the cycle.  Each interval is then a
    cubic Hermite piece in powers of xq - x[i].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    M = y.shape[0]
    h = np.diff(x)
    if x.shape != (M + 1,) or M < 3 or not np.min(h) > 0.0:
        raise ValueError("need M >= 3 knot values and M + 1 increasing knots")
    yk = y.reshape(M, -1)
    hk = h[:, None]
    h_prev = cyclic_shift(h, 1, axis=0)
    slope = (cyclic_shift(yk, -1, axis=0) - yk) / hk
    rhs = 3 * (hk * cyclic_shift(slope, 1, axis=0) + h_prev[:, None] * slope)
    col = np.zeros(M - 1)
    col[0], col[-1] = -h[0], -h[-3]
    sol = _thomas(h[:-1], 2 * (h_prev + h)[:-1], h_prev[:-1],
                  np.column_stack([rhs[:-1], col]))
    s1, s2 = sol[:, :-1], sol[:, -1:]
    s_last = ((rhs[-1] - h[-2] * s1[0] - h[-1] * s1[-1])
              / (2 * (h[-1] + h[-2]) + h[-2] * s2[0] + h[-1] * s2[-1]))
    s = np.vstack([s1 + s_last * s2, s_last])
    t = (s + cyclic_shift(s, -1, axis=0) - 2 * slope) / hk
    quadratic, cubic = (slope - s) / hk - t, t / hk

    xq = np.asarray(xq, dtype=float)
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, M - 1).ravel()
    z = xq.ravel()[:, None] - x[i][:, None]
    z2 = z * z
    out = yk[i] + s[i] * z + quadratic[i] * z2 + cubic[i] * (z2 * z)
    return out.reshape(xq.shape + y.shape[1:])


def _thomas(lower, diag, upper, rhs: np.ndarray) -> np.ndarray:
    """Solve lower[i] u[i-1] + diag[i] u[i] + upper[i] u[i+1] = rhs[i] per column.

    No pivoting: the spline system is diagonally dominant.
    """
    n = len(diag)
    lower, d, upper = lower.tolist(), diag.tolist(), upper.tolist()
    fact = [0.0] * n
    for i in range(n - 1):
        fact[i] = lower[i + 1] / d[i]
        d[i + 1] -= fact[i] * upper[i]
    cols = rhs.T.tolist()
    for b in cols:
        for i in range(n - 1):
            b[i + 1] -= fact[i] * b[i]
        b[-1] /= d[-1]
        for i in range(n - 2, -1, -1):
            b[i] = (b[i] - upper[i] * b[i + 1]) / d[i]
    return np.array(cols).T


def polygon_hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two closed polygons.

    Vertex-to-segment distances in both directions, so the value is not
    inflated by mismatched vertex placement along the boundaries.
    """
    return max(_directed_hausdorff(P, Q), _directed_hausdorff(Q, P))


def _directed_hausdorff(P: np.ndarray, Q: np.ndarray) -> float:
    a = Q
    ab = edge_vectors(Q)         # (m, 2)
    ab2 = np.sum(ab * ab, axis=1)
    ab2 = np.where(ab2 == 0.0, 1.0, ab2)
    rel = P[:, None, :] - a[None, :, :]          # (n, m, 2)
    proj = np.sum(rel * ab[None, :, :], axis=2) / ab2[None, :]
    proj = np.clip(proj, 0.0, 1.0)
    closest = a[None, :, :] + proj[:, :, None] * ab[None, :, :]
    d = np.hypot(*(P[:, None, :] - closest).transpose(2, 0, 1))
    return float(np.max(np.min(d, axis=1)))


def curve_from_radius_profile(radius: float, M: int, sigma_value: float = 0.0,
                              t: float = 0.0) -> PlaneCurve:
    """Uniformly sampled circle, the degenerate but ubiquitous test curve."""
    from .support import PlaneCurve     # support imports this module

    alpha = TWO_PI * np.arange(M) / M
    P = radius * np.column_stack([np.cos(alpha), np.sin(alpha)])
    return PlaneCurve(P=P, sigma=np.full(M, float(sigma_value)), t=t)
