"""Discrete geometry of closed convex polygons.

Tangents are chord central differences, outward normals their -90 degree
rotation (CCW curves), and curvature the signed circumscribed-circle value of
each vertex triple: exact on uniformly sampled circles, second order on
general smooth curves.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DegenerateEdge


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

def vector_norms(v: np.ndarray) -> np.ndarray:
    return np.hypot(v[..., 0], v[..., 1])


class PolygonGeometry:
    """The one geometry pass: every stencil of P from its two neighbour arrays.

    Entry i belongs to vertex i, which edge e[i] = P[i+1] - P[i] leaves and
    e[i-1] = P[i] - P[i-1] enters.  The pass checks nothing; curvature and
    frame raise DegenerateEdge where their stencils degenerate.
    """

    def __init__(self, P: np.ndarray):
        P_next = cyclic_shift(P, -1, axis=-2)
        P_prev = cyclic_shift(P, 1, axis=-2)
        e_prev = P - P_prev
        self.edges = e = P_next - P
        self.lengths = vector_norms(e)
        self.prev_lengths = vector_norms(e_prev)
        self.cross = e_prev[..., 0] * e[..., 1] - e_prev[..., 1] * e[..., 0]
        self.dot = np.sum(e_prev * e, axis=-1)
        self.triangle = self.prev_lengths * self.lengths * vector_norms(e_prev + e)
        self.chord = P_next - P_prev

    @property
    def length(self) -> float:
        """Perimeter of a single polygon."""
        return float(self.lengths.sum())

    @cached_property
    def curvature(self) -> np.ndarray:
        """Signed curvature from the circumscribed circle of each vertex triple."""
        if np.min(self.triangle) <= 0.0:
            raise DegenerateEdge("zero-length edge in curvature stencil")
        return 2.0 * self.cross / self.triangle

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit tangent (chord central difference) and outward unit normal."""
        norm = vector_norms(self.chord)
        if np.min(norm) <= 0.0:
            raise DegenerateEdge("coincident neighbor vertices")
        T = self.chord / norm[..., None]
        return T, np.stack([T[..., 1], -T[..., 0]], axis=-1)

    @property
    def turning_angles(self) -> np.ndarray:
        """Exterior angle at each vertex; all positive for strictly convex CCW."""
        return np.arctan2(self.cross, self.dot)

    @property
    def normal_angles(self) -> np.ndarray:
        """Unwrapped outward-normal angle per vertex, increasing by 2*pi per loop."""
        nu = self.frame[1]
        return np.unwrap(np.arctan2(nu[..., 1], nu[..., 0]), axis=-1)


# Views of the pass for callers that hold vertices.  No package code calls
# discrete_tangent_normal; it stays as a hook point that perfbench/tracing.py
# wraps by name (tests/test_benchmark_hooks.py).

def discrete_tangent_normal(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return PolygonGeometry(P).frame


def discrete_curvature(P: np.ndarray) -> np.ndarray:
    return PolygonGeometry(P).curvature


def require_edge_lengths(lengths: np.ndarray) -> None:
    """DegenerateEdge when an edge of one polygon is below 1e-12 of the mean."""
    mean = float(lengths.mean())
    if np.min(lengths) < 1e-12 * mean:
        raise DegenerateEdge("adjacent vertices collide")


def resample_equal_arclength(P: np.ndarray, fields: list[np.ndarray] = (),
                             count: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Redistribute vertices to equal arc-length spacing.

    Positions and the given per-vertex fields are interpolated by one
    periodic cubic spline in the cumulative arc-length parameter.  Vertex
    count is preserved unless count says otherwise; vertex 0 stays fixed.
    """
    s = np.concatenate([[0.0], np.cumsum(PolygonGeometry(P).lengths)])
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
    ab = PolygonGeometry(Q).edges      # (m, 2)
    ab2 = np.sum(ab * ab, axis=1)
    ab2 = np.where(ab2 == 0.0, 1.0, ab2)
    rel = P[:, None, :] - a[None, :, :]          # (n, m, 2)
    proj = np.sum(rel * ab[None, :, :], axis=2) / ab2[None, :]
    proj = np.clip(proj, 0.0, 1.0)
    closest = a[None, :, :] + proj[:, :, None] * ab[None, :, :]
    d = np.hypot(*(P[:, None, :] - closest).transpose(2, 0, 1))
    return float(np.max(np.min(d, axis=1)))

