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
    convexity_check,
    curve_to_support,
    support_lengths,
    support_to_curve,
)


def ellipse_support_samples(a, b, theta):
    return np.sqrt(a**2 * np.cos(theta) ** 2 + b**2 * np.sin(theta) ** 2)


def dense_ellipse_polygon(a, b, M=2048):
    s = 2 * np.pi * np.arange(M) / M
    P = np.column_stack([a * np.cos(s), b * np.sin(s)])
    return PlaneCurve(P=P, sigma=np.zeros(M))


# Values the former per-angle conversion loop gave on the polygon of
# TestCurveToSupport.test_every_newton_outcome_on_a_coarse_random_polygon.
NEWTON_OUTCOMES_S = np.array([
    2.0260987088506193, 2.007036367955309, 1.9648350275672142, 1.925817919971972,
    1.8754992032108007, 1.8149266928139318, 1.7135704285758693, 1.6604691266288212,
    1.5932810305058027, 1.5113532622414807, 1.396506399295778, 1.2909230875013167,
    1.1982678663364916, 1.1191149400763776, 1.0515425377843541, 1.0102571102321412,
    1.007063930765504, 1.0180368889025773, 1.0709669402235094, 1.1095820523839388,
    1.2069038106636272, 1.2942956807438761, 1.4012050346545268, 1.4765795039439837,
    1.600562649661879, 1.686474208329346, 1.7561677818452357, 1.8210453488116825,
    1.8841216423001936, 1.935470377159302, 2.011789427207555, 2.0367329330345685,
    2.0428284944424924, 2.0301222660218317, 1.9989264276945138, 1.9498860067962123,
    1.8841573351391598, 1.8040315262333173, 1.7204957456345644, 1.6687021165766354,
    1.5916624243097024, 1.4995208341675894, 1.3931196214783415, 1.2760400975091366,
    1.1989603700184583, 1.130275237667863, 1.0547431169827008, 1.0096623692736912,
    1.0025141745952257, 1.04173667619756, 1.0592859191517325, 1.094095108111959,
    1.1510043455458818, 1.2305707288031504, 1.3000963132162722, 1.4524472847876886,
    1.593713212268108, 1.7206767075572764, 1.8315759112876335, 1.8525819208631262,
    1.8897031770123884, 1.9358197338228265, 1.968076715071893, 2.0031832836985606,
])


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

    def test_every_newton_outcome_on_a_coarse_random_polygon(self):
        # 24 vertices at random parameters of the 2:1 ellipse, converted to
        # N = 64: Newton stops on d2 >= 0 at 23 angles, fails to converge at
        # 2, lands too far from the arg-max vertex at 1 and polishes 38.  The
        # values are those of the per-angle loop the conversion replaced.
        s_par = np.sort(np.random.default_rng(3).uniform(0.0, 2 * np.pi, 24))
        curve = PlaneCurve(P=np.column_stack([2.0 * np.cos(s_par), np.sin(s_par)]),
                           sigma=np.zeros(24))
        state = curve_to_support(curve, AngleGrid(64))
        np.testing.assert_allclose(state.S, NEWTON_OUTCOMES_S, rtol=0.0, atol=1e-14)

    def test_odd_vertex_count_equals_the_np_fft_reference(self, monkeypatch):
        # grids.rfft calls numpy's pocketfft gufunc; the reference transforms
        # each coordinate with np.fft.rfft.
        M = 257
        s_par = 2 * np.pi * np.arange(M) / M
        curve = PlaneCurve(P=np.column_stack([2.0 * np.cos(s_par), np.sin(s_par)]),
                           sigma=np.zeros(M))
        grid = AngleGrid(128)
        state = curve_to_support(curve, grid)
        np.testing.assert_allclose(state.S, ellipse_support_samples(2.0, 1.0, grid.theta),
                                   rtol=0.0, atol=1e-12)
        monkeypatch.setattr(himcf.support, "rfft",
                            lambda PT: (np.fft.rfft(PT[0]), np.fft.rfft(PT[1])))
        reference = curve_to_support(curve, grid)
        assert state.S.tobytes() == reference.S.tobytes()

    @pytest.mark.parametrize("x0", [5.0, 1.0])
    def test_noninterior_origin_is_refused(self, x0):
        # The support function is measured about the origin, so a circle
        # that does not hold it strictly inside (x0 = 1: on the boundary) has
        # no support state; the conversion does not move the curve.
        M = 512
        s_par = 2 * np.pi * np.arange(M) / M
        P = np.column_stack([x0 + np.cos(s_par), np.sin(s_par)])
        with pytest.raises(OriginNotInterior):
            curve_to_support(PlaneCurve(P=P, sigma=np.zeros(M)), AngleGrid(64))

    def test_nonconvex_polygon_rejected(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.2], [0.0, -1.0]])
        with pytest.raises(NotConvex):
            curve_to_support(PlaneCurve(P=P, sigma=np.zeros(4)), AngleGrid(16))


class TestCurvature:
    def test_circle(self):
        grid = AngleGrid(64)
        k = 1.0 / convexity_check(make_state(grid, np.full(64, 2.0)))
        np.testing.assert_allclose(k, 0.5, atol=1e-13)

    def test_translated_disk_curvature_is_one(self):
        grid = AngleGrid(64)
        k = 1.0 / convexity_check(make_state(grid, 1.0 + 0.1 * np.cos(grid.theta)))
        np.testing.assert_allclose(k, 1.0, atol=1e-10)

    def test_ellipse_extremes(self):
        grid = AngleGrid(256)
        S = ellipse_support_samples(2.0, 1.0, grid.theta)
        k = 1.0 / convexity_check(make_state(grid, S))
        # normal angle 0 hits the (a, 0) vertex, pi/2 the (0, b) one
        assert k[0] == pytest.approx(2.0, abs=1e-6)
        assert k[64] == pytest.approx(0.25, abs=1e-6)

    def test_convexity_floor_raises(self):
        grid = AngleGrid(64)
        S = 1.0 + 0.5 * np.cos(4 * grid.theta)
        with pytest.raises(ConvexityLost) as err:
            convexity_check(make_state(grid, S))
        assert err.value.theta is not None


class TestLength:
    def test_circle(self):
        assert support_lengths(np.full(64, 1.5)) == \
            pytest.approx(3 * np.pi, abs=1e-12)

    def test_ellipse_perimeter(self):
        grid = AngleGrid(256)
        S = ellipse_support_samples(2.0, 1.0, grid.theta)
        L = support_lengths(S)
        exact, _ = quad(
            lambda s: np.sqrt(4 * np.sin(s) ** 2 + np.cos(s) ** 2), 0, 2 * np.pi)
        assert exact == pytest.approx(9.688448, abs=1e-4)
        assert L == pytest.approx(exact, abs=1e-4)

    def test_translated_disk(self):
        grid = AngleGrid(64)
        L = support_lengths(1.0 + 0.1 * np.cos(grid.theta))
        assert L == pytest.approx(2 * np.pi, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-0.5, 0.5), b=st.floats(-0.5, 0.5))
def test_translation_leaves_curvature_and_length_alone(a, b):
    # adding a*cos + b*sin to S translates the curve by (a, b)
    grid = AngleGrid(64)
    base = 2.0 + 0.1 * np.cos(2 * grid.theta)
    shifted = base + a * np.cos(grid.theta) + b * np.sin(grid.theta)
    k0 = 1.0 / convexity_check(make_state(grid, base))
    k1 = 1.0 / convexity_check(make_state(grid, shifted))
    np.testing.assert_allclose(k0, k1, atol=1e-10)
    assert support_lengths(shifted) == pytest.approx(support_lengths(base), abs=1e-10)


def test_state_requires_matching_shapes():
    grid = AngleGrid(32)
    with pytest.raises(ValueError):
        SupportState(grid=grid, S=np.ones(16), V=np.zeros(16))
    with pytest.raises(ValueError):
        SupportState(grid=grid, S=np.full(32, np.inf), V=np.zeros(32))
