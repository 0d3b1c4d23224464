"""Support-function representation: conversions, curvature, length."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from himcf.errors import ConvexityLost, NotConvex, OriginNotInterior
import himcf.support
from himcf.grids import AngleGrid
from himcf.presets import ellipse_support
from himcf.support import (
    PlaneCurve,
    SupportState,
    curvature_from_support,
    curve_to_support,
    length_from_support,
    support_to_curve,
)


def ellipse_support_samples(a, b, theta):
    return np.sqrt(a**2 * np.cos(theta) ** 2 + b**2 * np.sin(theta) ** 2)


def dense_ellipse_polygon(a, b, M=2048):
    s = 2 * np.pi * np.arange(M) / M
    P = np.column_stack([a * np.cos(s), b * np.sin(s)])
    return PlaneCurve(P=P, sigma=np.zeros(M))


def make_state(grid, S, V=None):
    V = np.zeros(grid.N) if V is None else V
    return SupportState(grid=grid, S=S, V=V)


class TestSupportToCurve:
    def test_constant_support_is_origin_centered_circle(self):
        grid = AngleGrid(64)
        c = support_to_curve(make_state(grid, np.full(64, 2.5)))
        radii = np.hypot(c.P[:, 0], c.P[:, 1])
        np.testing.assert_allclose(radii, 2.5, atol=1e-13)

    def test_translated_disk(self):
        # S = 1 + 0.1 cos(theta) is the unit disk shifted to (0.1, 0)
        grid = AngleGrid(64)
        c = support_to_curve(make_state(grid, 1.0 + 0.1 * np.cos(grid.theta)))
        radii = np.hypot(c.P[:, 0] - 0.1, c.P[:, 1])
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)

    def test_ellipse_vertices_lie_on_the_ellipse(self):
        grid = AngleGrid(128)
        S = ellipse_support_samples(2.0, 1.0, grid.theta)
        c = support_to_curve(make_state(grid, S))
        on_ellipse = c.P[:, 0] ** 2 / 4.0 + c.P[:, 1] ** 2
        np.testing.assert_allclose(on_ellipse, 1.0, atol=1e-8)

    def test_velocity_is_carried_to_sigma(self):
        grid = AngleGrid(32)
        V = 0.3 * np.sin(grid.theta)
        c = support_to_curve(make_state(grid, np.ones(32), V))
        np.testing.assert_allclose(c.sigma, V)

    def test_nonconvex_support_rejected(self):
        grid = AngleGrid(64)
        # amplitude big enough that S'' + S changes sign
        S = 1.0 + 0.5 * np.cos(4 * grid.theta)
        with pytest.raises(ConvexityLost):
            support_to_curve(make_state(grid, S))


class TestPlaneCurve:
    def test_P_and_sigma_are_views_of_one_packed_row(self):
        c = dense_ellipse_polygon(2.0, 1.0, M=16)
        assert c.packed is c.packed
        assert c.packed.shape == (48,) and not c.packed.flags.writeable
        assert np.shares_memory(c.P, c.packed) and np.shares_memory(c.sigma, c.packed)
        np.testing.assert_array_equal(c.packed, np.concatenate([c.P.ravel(), c.sigma]))


class TestCurveToSupport:
    def test_unit_circle(self):
        grid = AngleGrid(64)
        s = curve_to_support(dense_ellipse_polygon(1.0, 1.0), grid)
        np.testing.assert_allclose(s.S, 1.0, atol=1e-9)

    def test_ellipse_support_closed_form(self):
        grid = AngleGrid(64)
        s = curve_to_support(dense_ellipse_polygon(2.0, 1.0), grid)
        np.testing.assert_allclose(
            s.S, ellipse_support_samples(2.0, 1.0, grid.theta), atol=1e-6)

    def test_round_trip_smooth_state(self):
        grid = AngleGrid(64)
        S = 1.0 + 0.15 * np.cos(grid.theta) + 0.05 * np.cos(2 * grid.theta)
        back = curve_to_support(support_to_curve(make_state(grid, S)), grid)
        np.testing.assert_allclose(back.S, S, atol=1e-6)

    @pytest.mark.parametrize("M", [256, 512, 1024])
    def test_sampled_ellipse_converts_back_to_machine_precision(self, M):
        # Grid angles that meet a vertex exactly must keep the vertex value,
        # which Newton's polish reaches only to within an ulp.
        curve = support_to_curve(ellipse_support(AngleGrid(M), 2.0, 1.0, 0.0))
        back = curve_to_support(curve, AngleGrid(128))
        np.testing.assert_allclose(back.S, ellipse_support(AngleGrid(128), 2.0, 1.0, 0.0).S,
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("x0", [0.0, 5.0])
    def test_odd_vertex_count_equals_the_np_fft_reference(self, x0, monkeypatch):
        # grids.rfft calls numpy's pocketfft gufunc; the reference transforms
        # each coordinate with np.fft.rfft.  x0 = 5 moves the origin outside,
        # so the recentred polygon is the one transformed.
        M = 257
        s_par = 2 * np.pi * np.arange(M) / M
        curve = PlaneCurve(P=np.column_stack([x0 + 2.0 * np.cos(s_par), np.sin(s_par)]),
                           sigma=np.zeros(M))
        grid = AngleGrid(128)
        state = curve_to_support(curve, grid)
        np.testing.assert_allclose(state.S, ellipse_support_samples(2.0, 1.0, grid.theta),
                                   rtol=0.0, atol=1e-12)
        monkeypatch.setattr(himcf.support, "rfft",
                            lambda PT: (np.fft.rfft(PT[0]), np.fft.rfft(PT[1])))
        reference = curve_to_support(curve, grid)
        assert state.S.tobytes() == reference.S.tobytes()
        assert state.center == reference.center

    def test_noninterior_origin_recenters_and_records_shift(self):
        M = 512
        s_par = 2 * np.pi * np.arange(M) / M
        P = np.column_stack([5.0 + np.cos(s_par), np.sin(s_par)])
        state = curve_to_support(PlaneCurve(P=P, sigma=np.zeros(M)), AngleGrid(64))
        np.testing.assert_allclose(state.S, 1.0, atol=1e-8)
        np.testing.assert_allclose(state.center, (5.0, 0.0), atol=1e-12)
        # reconstruction undoes the recorded shift
        c = support_to_curve(state)
        radii = np.hypot(c.P[:, 0] - 5.0, c.P[:, 1])
        np.testing.assert_allclose(radii, 1.0, atol=1e-8)

    def test_noninterior_origin_without_recentering(self):
        M = 256
        s_par = 2 * np.pi * np.arange(M) / M
        P = np.column_stack([5.0 + np.cos(s_par), np.sin(s_par)])
        with pytest.raises(OriginNotInterior):
            curve_to_support(PlaneCurve(P=P, sigma=np.zeros(M)), AngleGrid(64),
                             recenter=False)

    def test_nonconvex_polygon_rejected(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.2], [0.0, -1.0]])
        with pytest.raises(NotConvex):
            curve_to_support(PlaneCurve(P=P, sigma=np.zeros(4)), AngleGrid(16))


class TestCurvature:
    def test_circle(self):
        grid = AngleGrid(64)
        k = curvature_from_support(make_state(grid, np.full(64, 2.0)))
        np.testing.assert_allclose(k, 0.5, atol=1e-13)

    def test_translated_disk_curvature_is_one(self):
        grid = AngleGrid(64)
        k = curvature_from_support(make_state(grid, 1.0 + 0.1 * np.cos(grid.theta)))
        np.testing.assert_allclose(k, 1.0, atol=1e-10)

    def test_ellipse_extremes(self):
        grid = AngleGrid(256)
        S = ellipse_support_samples(2.0, 1.0, grid.theta)
        k = curvature_from_support(make_state(grid, S))
        # normal angle 0 hits the (a, 0) vertex, pi/2 the (0, b) one
        assert k[0] == pytest.approx(2.0, abs=1e-6)
        assert k[64] == pytest.approx(0.25, abs=1e-6)

    def test_convexity_floor_raises(self):
        grid = AngleGrid(64)
        S = 1.0 + 0.5 * np.cos(4 * grid.theta)
        with pytest.raises(ConvexityLost) as err:
            curvature_from_support(make_state(grid, S))
        assert err.value.theta is not None


class TestLength:
    def test_circle(self):
        grid = AngleGrid(64)
        assert length_from_support(make_state(grid, np.full(64, 1.5))) == \
            pytest.approx(3 * np.pi, abs=1e-12)

    def test_ellipse_perimeter(self):
        grid = AngleGrid(256)
        S = ellipse_support_samples(2.0, 1.0, grid.theta)
        L = length_from_support(make_state(grid, S))
        exact, _ = quad(
            lambda s: np.sqrt(4 * np.sin(s) ** 2 + np.cos(s) ** 2), 0, 2 * np.pi)
        assert exact == pytest.approx(9.688448, abs=1e-4)
        assert L == pytest.approx(exact, abs=1e-4)

    def test_translated_disk(self):
        grid = AngleGrid(64)
        L = length_from_support(make_state(grid, 1.0 + 0.1 * np.cos(grid.theta)))
        assert L == pytest.approx(2 * np.pi, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-0.5, 0.5), b=st.floats(-0.5, 0.5))
def test_translation_leaves_curvature_and_length_alone(a, b):
    # adding a*cos + b*sin to S translates the curve by (a, b)
    grid = AngleGrid(64)
    base = 2.0 + 0.1 * np.cos(2 * grid.theta)
    shifted = base + a * np.cos(grid.theta) + b * np.sin(grid.theta)
    k0 = curvature_from_support(make_state(grid, base))
    k1 = curvature_from_support(make_state(grid, shifted))
    np.testing.assert_allclose(k0, k1, atol=1e-10)
    assert length_from_support(make_state(grid, shifted)) == \
        pytest.approx(length_from_support(make_state(grid, base)), abs=1e-10)


def test_state_requires_matching_shapes():
    grid = AngleGrid(32)
    with pytest.raises(ValueError):
        SupportState(grid=grid, S=np.ones(16), V=np.zeros(16))
    with pytest.raises(ValueError):
        SupportState(grid=grid, S=np.full(32, np.inf), V=np.zeros(32))
