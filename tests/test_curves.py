"""Discrete polygon geometry helpers."""
import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from himcf.curves import (
    PolygonGeometry,
    cyclic_shift,
    discrete_curvature,
    discrete_tangent_normal,
    periodic_spline,
    polygon_hausdorff,
    require_edge_lengths,
    resample_equal_arclength,
)
from himcf.errors import DegenerateEdge
from himcf.presets import circle_curve


def circle_points(radius=1.0, M=256, center=(0.0, 0.0)):
    s = 2 * np.pi * np.arange(M) / M
    return np.column_stack([center[0] + radius * np.cos(s),
                            center[1] + radius * np.sin(s)])


def ellipse_points(a, b, M=256):
    s = 2 * np.pi * np.arange(M) / M
    return np.column_stack([a * np.cos(s), b * np.sin(s)])


def test_polygon_length_converges_to_circumference():
    L = PolygonGeometry(circle_points(radius=2.0, M=4096)).length
    assert L == pytest.approx(4 * np.pi, rel=1e-6)


def test_turning_angles_sum_to_full_turn():
    for P in (circle_points(M=64), ellipse_points(1.7, 0.6, M=128)):
        assert np.sum(PolygonGeometry(P).turning_angles) == pytest.approx(2 * np.pi, abs=1e-12)


def test_discrete_curvature_on_circle():
    k = discrete_curvature(circle_points(radius=2.0, M=512))
    np.testing.assert_allclose(k, 0.5, rtol=1e-4)


def test_discrete_curvature_ellipse_extremes():
    # vertex 0 sits at (a, 0) where k = a/b^2
    P = ellipse_points(2.0, 1.0, M=4096)
    k = discrete_curvature(P)
    assert k[0] == pytest.approx(2.0, rel=1e-4)
    assert k[1024] == pytest.approx(0.25, rel=1e-4)


def test_tangent_normal_frame_on_circle():
    P = circle_points(M=512)
    T, nu = discrete_tangent_normal(P)
    np.testing.assert_allclose(np.hypot(T[:, 0], T[:, 1]), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(T * nu, axis=1), 0.0, atol=1e-12)
    # outward normal points along the position vector on an origin circle
    np.testing.assert_allclose(np.sum(nu * P, axis=1), 1.0, atol=1e-4)


def test_normal_angles_unwrap_monotonically():
    ang = PolygonGeometry(ellipse_points(1.5, 1.0, M=256)).normal_angles
    assert np.all(np.diff(ang) > 0)
    assert ang[-1] - ang[0] < 2 * np.pi


def test_require_nondegenerate_rejects_coincident_vertices():
    P = circle_points(M=32)
    P_bad = P.copy()
    P_bad[5] = P_bad[4]
    with pytest.raises(DegenerateEdge):
        require_edge_lengths(PolygonGeometry(P_bad).lengths)
    require_edge_lengths(PolygonGeometry(P).lengths)


class TestHausdorff:
    def test_identical_is_zero(self):
        P = ellipse_points(2.0, 1.0, M=128)
        assert polygon_hausdorff(P, P) == 0.0

    def test_concentric_circles(self):
        d = polygon_hausdorff(circle_points(1.0, M=1024), circle_points(2.0, M=1024))
        assert d == pytest.approx(1.0, abs=1e-4)

    def test_symmetric(self):
        P = circle_points(1.0, M=256)
        Q = ellipse_points(1.3, 0.9, M=256)
        assert polygon_hausdorff(P, Q) == pytest.approx(polygon_hausdorff(Q, P))

    def test_translation_shows_up(self):
        P = circle_points(1.0, M=512)
        Q = circle_points(1.0, M=512, center=(0.25, 0.0))
        assert polygon_hausdorff(P, Q) == pytest.approx(0.25, abs=1e-3)


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("M", [16, 256, 2048])
def test_periodic_spline_matches_scipy_reference(M, channels):
    rng = np.random.default_rng(M + channels)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, M))])
    y = rng.standard_normal(M if channels == 1 else (M, channels))
    xq = np.concatenate([rng.uniform(x[0], x[-1], 4 * M), x])
    reference = CubicSpline(x, np.concatenate([y, y[:1]]), bc_type="periodic")(xq)
    got = periodic_spline(x, y, xq)
    assert got.shape == reference.shape
    assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))


class TestResampling:
    def test_equalizes_edge_lengths(self):
        # strongly nonuniform parametrization of a circle
        s = 2 * np.pi * np.arange(256) / 256
        warped = s + 0.4 * np.sin(s)
        P = np.column_stack([np.cos(warped), np.sin(warped)])
        Q, _ = resample_equal_arclength(P)
        lengths = np.hypot(*(np.roll(Q, -1, axis=0) - Q).T)
        assert np.max(lengths) / np.min(lengths) < 1.0001

    def test_count_override(self):
        P = circle_points(1.0, M=1024)
        Q, _ = resample_equal_arclength(P, count=128)
        assert Q.shape == (128, 2)
        np.testing.assert_allclose(np.hypot(Q[:, 0], Q[:, 1]), 1.0, atol=1e-4)

    def test_field_transport(self):
        s = 2 * np.pi * np.arange(512) / 512
        P = np.column_stack([np.cos(s), np.sin(s)])
        field = np.cos(s)
        Q, (f,) = resample_equal_arclength(P, fields=[field])
        # on an already-uniform circle the resample is near-identity
        np.testing.assert_allclose(Q, P, atol=1e-10)
        np.testing.assert_allclose(f, field, atol=1e-8)

    def test_length_preserved(self):
        P = ellipse_points(2.0, 1.0, M=512)
        Q, _ = resample_equal_arclength(P)
        assert PolygonGeometry(Q).length == pytest.approx(PolygonGeometry(P).length, rel=1e-5)


def test_circle_curve_samples_the_circle():
    c = circle_curve(64, 1.5, speed=-0.5)
    np.testing.assert_allclose(np.hypot(c.P[:, 0], c.P[:, 1]), 1.5, atol=1e-12)
    np.testing.assert_allclose(c.sigma, -0.5)
    assert c.M == 64


# Reference stencils written with np.roll, one polygon at a time.
def roll_edges(P):
    return np.roll(P, -1, axis=0) - P


def roll_tangent_normal(P):
    chord = np.roll(P, -1, axis=0) - np.roll(P, 1, axis=0)
    norm = np.hypot(chord[:, 0], chord[:, 1])
    if np.min(norm) <= 0.0:
        raise DegenerateEdge("coincident neighbor vertices")
    T = chord / norm[:, None]
    return T, np.column_stack([T[:, 1], -T[:, 0]])


def roll_curvature(P):
    e = roll_edges(P)
    e_prev = np.roll(e, 1, axis=0)
    cross = e_prev[:, 0] * e[:, 1] - e_prev[:, 1] * e[:, 0]
    denom = (np.hypot(e_prev[:, 0], e_prev[:, 1]) * np.hypot(e[:, 0], e[:, 1])
             * np.hypot(*(e_prev + e).T))
    if np.min(denom) <= 0.0:
        raise DegenerateEdge("zero-length edge in curvature stencil")
    return 2.0 * cross / denom


def roll_turning_angles(P):
    e = roll_edges(P)
    e_prev = np.roll(e, 1, axis=0)
    cross = e_prev[:, 0] * e[:, 1] - e_prev[:, 1] * e[:, 0]
    return np.arctan2(cross, np.sum(e_prev * e, axis=1))


def roll_normal_angles(P):
    nu = roll_tangent_normal(P)[1]
    return np.unwrap(np.arctan2(nu[:, 1], nu[:, 0]))


def geometry_arrays(g):
    """Every array of a geometry pass, its checked views included."""
    return {"edges": g.edges, "lengths": g.lengths, "prev_lengths": g.prev_lengths,
            "cross": g.cross, "dot": g.dot, "triangle": g.triangle, "chord": g.chord,
            "curvature": g.curvature, "tangent": g.frame[0], "normal": g.frame[1],
            "turning_angles": g.turning_angles, "normal_angles": g.normal_angles}


def random_convex_polygons(T, M, seed):
    """T smooth convex curves: perturbed ellipses, randomly placed and sampled."""
    rng = np.random.default_rng(seed)
    stack = np.empty((T, M, 2))
    for i in range(T):
        s = np.sort(rng.uniform(0.0, 2 * np.pi, M))
        r = 1.0 + rng.uniform(-0.05, 0.05) * np.cos(3 * s + rng.uniform(0, 6))
        a, b = rng.uniform(0.5, 3.0, 2)
        stack[i] = np.column_stack([a * r * np.cos(s), b * r * np.sin(s)]) + rng.normal(size=2)
    return stack


@pytest.mark.parametrize("shape, axis", [((7,), 0), ((5, 2), 0), ((3, 6, 2), -2),
                                         ((3, 6), -1), ((4, 1, 3), 1)])
@pytest.mark.parametrize("shift", [-1, 1, 2])
def test_cyclic_shift_is_roll(shape, axis, shift):
    a = np.arange(np.prod(shape), dtype=float).reshape(shape)
    assert np.array_equal(cyclic_shift(a, shift, axis=axis), np.roll(a, shift, axis=axis))


class TestBatchedStencils:
    STACK = random_convex_polygons(T=6, M=97, seed=11)

    def test_single_polygons_match_the_roll_reference_bit_for_bit(self):
        for P in self.STACK:
            assert np.array_equal(PolygonGeometry(P).edges, roll_edges(P))
            assert np.array_equal(PolygonGeometry(P).lengths, np.hypot(*roll_edges(P).T))
            for got, ref in zip(discrete_tangent_normal(P), roll_tangent_normal(P)):
                assert np.array_equal(got, ref)
            assert np.array_equal(discrete_curvature(P), roll_curvature(P))
            assert np.array_equal(PolygonGeometry(P).turning_angles, roll_turning_angles(P))

    def test_geometry_pass_matches_the_roll_reference_bit_for_bit(self):
        for P in self.STACK:
            e = roll_edges(P)
            e_prev = np.roll(e, 1, axis=0)
            lengths = np.hypot(*e.T)
            reference = {
                "edges": e, "lengths": lengths, "prev_lengths": np.roll(lengths, 1),
                "cross": e_prev[:, 0] * e[:, 1] - e_prev[:, 1] * e[:, 0],
                "dot": np.sum(e_prev * e, axis=1),
                "triangle": np.roll(lengths, 1) * lengths * np.hypot(*(e_prev + e).T),
                "chord": np.roll(P, -1, axis=0) - np.roll(P, 1, axis=0),
                "curvature": roll_curvature(P),
                "tangent": roll_tangent_normal(P)[0], "normal": roll_tangent_normal(P)[1],
                "turning_angles": roll_turning_angles(P),
                "normal_angles": roll_normal_angles(P)}
            got = geometry_arrays(PolygonGeometry(P))
            for name, ref in reference.items():
                assert np.array_equal(got[name], ref), name

    def test_stack_equals_per_polygon_calls_bit_for_bit(self):
        stack = self.STACK
        for name in ("lengths", "curvature", "turning_angles", "cross", "normal_angles"):
            batched = getattr(PolygonGeometry(stack), name)
            assert batched.shape[:2] == stack.shape[:2], name
            for i, P in enumerate(stack):
                assert np.array_equal(batched[i], getattr(PolygonGeometry(P), name)), name
        batched = discrete_curvature(stack)
        for i, P in enumerate(stack):
            assert np.array_equal(batched[i], discrete_curvature(P))
        T, nu = discrete_tangent_normal(stack)
        for i, P in enumerate(stack):
            T_i, nu_i = discrete_tangent_normal(P)
            assert np.array_equal(T[i], T_i) and np.array_equal(nu[i], nu_i)
        batched = geometry_arrays(PolygonGeometry(stack))
        for i, P in enumerate(stack):
            for name, got in geometry_arrays(PolygonGeometry(P)).items():
                assert np.array_equal(batched[name][i], got), name

    def test_degenerate_member_raises_for_the_stack(self):
        stack = self.STACK.copy()
        stack[3, 8] = stack[3, 7]
        with pytest.raises(DegenerateEdge, match="curvature stencil"):
            discrete_curvature(stack)
        stack[3, 9] = stack[3, 7]
        with pytest.raises(DegenerateEdge, match="coincident neighbor"):
            discrete_tangent_normal(stack)
