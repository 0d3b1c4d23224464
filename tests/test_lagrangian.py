"""Lagrangian normal-velocity solver and cross-solver agreement."""
import math

import numpy as np
import pytest

import himcf.lagrangian
from himcf.curves import (
    PolygonGeometry,
    discrete_curvature,
    discrete_tangent_normal,
    polygon_hausdorff,
    require_edge_lengths,
    resample_equal_arclength,
)
from himcf.errors import CflViolation, DegenerateEdge, NotConvex
from himcf.flow import FlowConfig, run_support_flow
from himcf.grids import AngleGrid
from himcf.lagrangian import (
    RESAMPLE_INTERVAL,
    _velocity,
    lagrangian_cfl_bound,
    run_lagrangian_flow,
    step_lagrangian,
    tangential_velocity_max,
)
from himcf.presets import circle_curve, ellipse_curve, ellipse_support
from himcf.support import PlaneCurve, support_to_curve, unpack_curve
from test_flow import retained_bytes_per_snapshot


def radii(c):
    return np.hypot(c.P[:, 0], c.P[:, 1])


class TestStep:
    def test_circle_step_tracks_closed_form(self):
        c = circle_curve(256, 1.0, speed=-1.0)
        out = step_lagrangian(c, 1e-3)
        np.testing.assert_allclose(radii(out), math.exp(-1e-3), atol=1e-9)
        np.testing.assert_allclose(out.sigma, -1.0 + 1e-3, atol=1e-5)

    def test_zero_speed_leaves_positions_and_charges_sigma(self):
        c = circle_curve(128, 2.0, speed=0.0)
        dt = 1e-3
        out = step_lagrangian(c, dt)
        # position drift is second order in dt, sigma picks up dt/k = dt*r
        np.testing.assert_allclose(out.P, c.P, atol=5e-6)
        np.testing.assert_allclose(out.sigma, dt * 2.0, rtol=1e-2)

    def test_rotational_equivariance(self):
        c = ellipse_curve(128, 1.5, 1.0, speed=-0.4)
        phi = 0.7
        R = np.array([[math.cos(phi), -math.sin(phi)],
                      [math.sin(phi), math.cos(phi)]])
        rotated = PlaneCurve(P=c.P @ R.T, sigma=c.sigma, t=c.t)
        a = step_lagrangian(rotated, 1e-3)
        b = step_lagrangian(c, 1e-3)
        np.testing.assert_allclose(a.P, b.P @ R.T, atol=1e-12)
        np.testing.assert_allclose(a.sigma, b.sigma, atol=1e-12)

    def test_nonconvex_input_rejected(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.2], [0.0, -1.0]])
        with pytest.raises(NotConvex):
            step_lagrangian(PlaneCurve(P=P, sigma=np.zeros(4)), 1e-3)


def three_pass_geometry(P):
    """The geometry as three separate passes: collision, curvature, normal."""
    require_edge_lengths(PolygonGeometry(P).lengths)
    k = discrete_curvature(P)
    if np.min(k) <= 0.0:
        raise NotConvex(f"non-positive discrete curvature at vertex {int(np.argmin(k))}")
    _, nu = discrete_tangent_normal(P)
    return nu, k


class TestGeometry:
    def test_one_pass_equals_three_passes_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for M in (3, 16, 257):
            for _ in range(4):
                s = np.sort(rng.uniform(0.0, 2 * np.pi, M))
                a, b = rng.uniform(0.2, 4.0, 2)
                P = np.column_stack([a * np.cos(s), b * np.sin(s)]) + rng.normal(size=2)
                sigma = rng.uniform(-1.0, 1.0, M)
                P_rate, sigma_rate = unpack_curve(_velocity(PolygonGeometry(P), sigma))
                nu, k = three_pass_geometry(P)
                assert np.array_equal(P_rate, sigma[:, None] * nu)
                assert np.array_equal(sigma_rate, 1.0 / k)

    @pytest.mark.parametrize("case", ["collided", "near-collided", "spike", "dented",
                                      "collinear"])
    def test_bad_polygons_raise_what_the_three_passes_raise(self, case):
        s = 2 * np.pi * np.arange(12) / 12
        P = np.column_stack([np.cos(s), np.sin(s)])
        if case == "collided":
            P[4] = P[3]
        elif case == "near-collided":
            P[4] = P[3] + 1e-14
        elif case == "spike":
            P[5] = P[3]
        elif case == "dented":
            P[4] *= 0.5
        else:
            P = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        with pytest.raises((DegenerateEdge, NotConvex)) as ref:
            three_pass_geometry(P)
        with pytest.raises(ref.type) as got:
            _velocity(PolygonGeometry(P), np.ones(len(P)))
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("M", [3, 8, 257])
def test_cfl_bound_matches_the_roll_reference_bit_for_bit(M):
    # Every start vertex once, so the steepest sigma difference also meets the wrap.
    P = ellipse_curve(M, 2.0, 1.0, speed=0.5).P
    sigma = np.random.default_rng(M).uniform(-1.0, 1.0, M)
    for k in range(M):
        c = PlaneCurve(P=np.roll(P, k, axis=0), sigma=np.roll(sigma, k))
        g = PolygonGeometry(c.P)
        sigma_s = (np.roll(c.sigma, -1) - np.roll(c.sigma, 1)) / (g.lengths + g.prev_lengths)
        bound = np.min(g.turning_angles) / (np.max(np.abs(sigma_s)) + 1.0)
        assert lagrangian_cfl_bound(c) == bound, k


class TestRun:
    def test_fixed_dt_above_cfl_bound_is_rejected(self):
        c = circle_curve(256, 1.0, speed=0.5)
        bound = FlowConfig(dt=1.0).safety * lagrangian_cfl_bound(c)
        with pytest.raises(CflViolation, match="exceeds CFL bound"):
            run_lagrangian_flow(c, 0.5, FlowConfig(dt=1.01 * bound, t_end=0.5))
        traj = run_lagrangian_flow(c, 0.5, FlowConfig(dt=0.5 * bound,
                                                      t_end=10 * bound))
        assert traj.termination.kind == "HorizonReached"

    def test_shrinking_circle_tracks_exponential(self):
        traj = run_lagrangian_flow(circle_curve(256, 1.0), -1.0,
                                   FlowConfig(t_end=1.0, record_every=10))
        assert traj.termination.kind == "HorizonReached"
        final = traj.snapshots[-1]
        np.testing.assert_allclose(radii(final), math.exp(-1.0), atol=1e-4)

    def test_zero_speed_circle_expands(self):
        traj = run_lagrangian_flow(circle_curve(192, 1.0), 0.0,
                                   FlowConfig(t_end=1.0, record_every=20))
        L = PolygonGeometry(traj.snapshots[-1].P).length
        assert L > 2 * math.pi

    def test_normal_flow_keeps_tangential_velocity_tiny(self):
        traj = run_lagrangian_flow(ellipse_curve(128, 1.5, 1.0), 1.0,
                                   FlowConfig(t_end=1.0, record_every=10))
        for snap in traj.snapshots:
            cap = 1e-6 * max(np.max(np.abs(snap.sigma)), 1e-30)
            assert tangential_velocity_max(snap.P, snap.sigma) <= cap

    def test_vertex_count_survives_resampling(self):
        traj = run_lagrangian_flow(ellipse_curve(96, 1.3, 0.9), -0.3,
                                   FlowConfig(t_end=0.6, record_every=25))
        assert all(s.M == 96 for s in traj.snapshots)
        # periodic resampling keeps vertex clustering bounded over the run
        # (edges drift apart between resamples but never run away)
        for snap in traj.snapshots:
            e = np.hypot(*(np.roll(snap.P, -1, axis=0) - snap.P).T)
            assert np.max(e) / np.min(e) < 1.5

    def test_both_solvers_end_at_the_configured_floor(self):
        # r(t) = 1.5 e^-t - 0.5 e^t reaches the floor r = eps (k = 1/eps) at
        # e^t = sqrt(eps^2 + 3) - eps.
        eps = 0.05
        t_floor = math.log(math.sqrt(eps**2 + 3.0) - eps)
        cfg = FlowConfig(N=64, t_end=1.0, eps_convex=eps)
        support = run_support_flow(np.ones(64), np.full(64, -2.0), cfg)
        polygon = run_lagrangian_flow(circle_curve(64, 1.0), -2.0, cfg)
        for traj in (support, polygon):
            assert traj.termination.kind == "CurvatureBlowup"
            assert traj.termination.t == pytest.approx(t_floor, abs=1e-4)

    def test_per_vertex_speed_accepted(self):
        c = circle_curve(128, 1.0)
        f = -0.5 + 0.05 * np.cos(np.linspace(0, 2 * np.pi, 128, endpoint=False))
        traj = run_lagrangian_flow(c, f, FlowConfig(t_end=0.3, record_every=50))
        assert traj.termination.kind == "HorizonReached"


class TestSharedStepping:
    """run_lagrangian_flow is the public step, resampling and step rule chained."""

    def test_snapshots_equal_chained_public_steps(self):
        cfg = FlowConfig(t_end=2.0)
        c = ellipse_curve(32, 2.0, 1.0, speed=-1.0)
        traj = run_lagrangian_flow(c, c.sigma, cfg)
        chained = [c]
        while c.t < cfg.t_end - 1e-12:
            c = step_lagrangian(c, cfg.next_dt(lagrangian_cfl_bound(c), c.t))
            if len(chained) % RESAMPLE_INTERVAL == 0:
                P, (sigma,) = resample_equal_arclength(c.P, [c.sigma])
                c = PlaneCurve(P=P, sigma=sigma, t=c.t)
            chained.append(c)
        assert traj.termination.kind == "HorizonReached"
        assert len(traj.snapshots) == len(chained) > 2 * RESAMPLE_INTERVAL
        for a, b in zip(traj.snapshots, chained):
            assert a.t == b.t
            assert np.array_equal(a.P, b.P) and np.array_equal(a.sigma, b.sigma)

    def test_translating_circle_fails_within_a_few_steps(self, monkeypatch):
        # sigma = 1e200 cos(theta) translates the circle; the vertices bunch
        # and the CFL step shrinks geometrically far below the resolution of
        # t_end.  The run must stop at once, not creep on for thousands of
        # steps.
        calls = []
        step = himcf.lagrangian.step_lagrangian

        def counted(c, dt):
            calls.append(dt)
            return step(c, dt)

        monkeypatch.setattr(himcf.lagrangian, "step_lagrangian", counted)
        c = circle_curve(256, 1.0)
        with pytest.raises(CflViolation, match="below the resolution of t_end"):
            run_lagrangian_flow(c, 1e200 * np.cos(PolygonGeometry(c.P).normal_angles),
                                FlowConfig(t_end=0.1))
        assert len(calls) < 10

    def test_four_geometry_passes_per_accepted_step(self, monkeypatch):
        # The geometry pass runs once for the initial state's check (the
        # set-up constant), then per accepted step once for each of stages
        # 2-4 and once to validate the candidate; stage 1, the CFL bound and
        # the final record reuse the validated state's pass.
        SETUP_PASSES = 1
        c = ellipse_curve(64, 2.0, 1.0, speed=-1.0)
        passes = []
        init = PolygonGeometry.__init__

        def counted_pass(self, P):
            passes.append(P.shape)
            init(self, P)

        monkeypatch.setattr(PolygonGeometry, "__init__", counted_pass)
        traj = run_lagrangian_flow(c, c.sigma, FlowConfig(dt=1e-3, t_end=0.02))
        assert traj.termination.kind == "HorizonReached"
        steps = len(traj.snapshots) - 1
        assert steps == 20 < RESAMPLE_INTERVAL
        assert len(passes) == 4 * steps + SETUP_PASSES == 81

    def test_recorded_snapshots_hold_only_the_floats(self):
        c = ellipse_curve(256, 2.0, 1.0, speed=0.5)
        per_snapshot, traj = retained_bytes_per_snapshot(
            lambda: run_lagrangian_flow(c, c.sigma, FlowConfig(dt=1e-4, t_end=0.05)))
        assert len(traj.times) == 501
        assert per_snapshot <= 1.05 * 3 * 256 * 8


@pytest.mark.xfail(strict=True, reason="the polygon steps through the collapse of the "
                                       "circle; nothing in its validation sees r -> -r")
@pytest.mark.parametrize("M", [32, 256])
def test_collapsing_circle_ends_by_the_collapse_time(M):
    # sigma = -2 on the unit circle collapses it at T* = ln(3)/2, where the
    # support solver ends the run.
    traj = run_lagrangian_flow(circle_curve(M, 1.0), -2.0, FlowConfig(t_end=1.0))
    assert traj.termination.t < 0.5 * math.log(3.0) + 1e-2


def test_cross_solver_hausdorff_on_ellipse():
    # the module's core oracle: two independent solvers, same flow
    t_end = 0.5
    s0 = ellipse_support(AngleGrid(128), 2.0, 1.0, speed=0.5)
    support_traj = run_support_flow(s0.S, s0.V,
                                    FlowConfig(N=128, t_end=t_end,
                                               record_every=1000))
    lag_traj = run_lagrangian_flow(ellipse_curve(256, 2.0, 1.0, speed=0.5), 0.5,
                                   FlowConfig(t_end=t_end, record_every=1000))
    assert support_traj.termination.kind == "HorizonReached"
    assert lag_traj.termination.kind == "HorizonReached"
    P = support_to_curve(support_traj.snapshots[-1]).P
    Q = lag_traj.snapshots[-1].P
    assert polygon_hausdorff(P, Q) <= 1e-3
