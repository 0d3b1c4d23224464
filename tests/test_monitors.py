"""Trajectory monitors: containment, length identities, outcome classification,
and the closed-form sphere identity residuals."""
import math

import numpy as np
import pytest

from himcf.errors import InsufficientData, InvalidConfig, OutOfDomain, PreconditionFailed
from himcf.flow import FlowConfig, run_support_flow
from himcf.grids import AngleGrid
from himcf.monitors import (
    OutcomeInputs,
    check_containment,
    check_length_identities,
    check_simons_sphere,
    classify_outcome,
    comparison_horizon,
    mean_curvature_acceleration_residual,
    metric_acceleration_residual,
    outcome_inputs_from_trajectory,
)
from himcf.presets import circle_support, ellipse_support
from himcf.radial import closed_form_radius, sphere_geometry


def circle_run(radius, speed, t_end=1.0, dt=1e-3, record_every=10, N=64):
    s0 = circle_support(AngleGrid(N), radius, speed)
    return run_support_flow(s0.S, s0.V, FlowConfig(N=N, dt=dt, t_end=t_end,
                                                   record_every=record_every))


def ellipse_run(a, b, speed, t_end=1.0, dt=1e-3, record_every=10, N=128,
                eps_convex=None):
    s0 = ellipse_support(AngleGrid(N), a, b, speed)
    return run_support_flow(s0.S, s0.V,
                            FlowConfig(N=N, dt=dt, t_end=t_end,
                                       record_every=record_every,
                                       eps_convex=eps_convex))


class TestContainment:
    def test_nested_circles_stay_nested(self):
        outer = circle_run(2.0, 0.5)
        inner = circle_run(1.0, 0.3)
        rec = check_containment(outer, inner)
        assert rec.passed
        assert rec.worst > 0.0

    def test_identical_data_gives_zero_margin_both_ways(self):
        a = circle_run(1.5, 0.2, t_end=0.5)
        b = circle_run(1.5, 0.2, t_end=0.5)
        fwd = check_containment(a, b)
        rev = check_containment(b, a)
        assert abs(fwd.worst) <= 1e-12
        assert abs(rev.worst) <= 1e-12

    def test_ellipse_inside_shrinking_circle(self):
        outer = circle_run(2.0, -1.5, dt=5e-4, record_every=20, N=128)
        inner = ellipse_run(1.2, 0.8, -1.5, dt=5e-4, record_every=20,
                            eps_convex=2e-2)
        rec = check_containment(outer, inner)
        assert rec.passed

    def test_initially_outside_is_a_precondition_failure(self):
        outer = circle_run(1.0, 0.3)
        inner = circle_run(2.0, 0.3)
        with pytest.raises(PreconditionFailed):
            check_containment(outer, inner)

    def test_faster_inner_speed_is_a_precondition_failure(self):
        outer = circle_run(2.0, 0.1)
        inner = circle_run(1.0, 0.5)
        with pytest.raises(PreconditionFailed):
            check_containment(outer, inner)

    def test_misaligned_snapshot_schedules_fail(self):
        outer = circle_run(2.0, 0.5, dt=1e-3, record_every=10)
        inner = circle_run(1.0, 0.3, dt=7e-4, record_every=13)
        with pytest.raises(PreconditionFailed):
            check_containment(outer, inner)


class TestLengthIdentities:
    def test_circle_run_residuals(self):
        # sigma is spatially constant, so the only residual is the central
        # differencing of L(t); fine spacing pushes it under 1e-6
        traj = circle_run(1.0, -1.0, dt=2.5e-4, record_every=2, t_end=0.05,
                          N=128)
        report = check_length_identities(traj)
        assert all(r.passed for r in report)
        first = next(r for r in report if "first" in r.name)
        second = next(r for r in report if "second" in r.name)
        L_scale = 2 * math.pi
        assert first.worst <= 1e-6 * L_scale
        assert second.worst <= 1e-2 * L_scale

    def test_first_residual_shrinks_quadratically_with_spacing(self):
        def worst_first(dt, every):
            traj = circle_run(1.0, -1.0, dt=dt, record_every=every, t_end=0.5)
            report = check_length_identities(traj)
            return next(r for r in report if "first" in r.name).worst

        coarse = worst_first(2e-3, 10)    # spacing 0.02
        fine = worst_first(1e-3, 10)      # spacing 0.01
        assert coarse / fine >= 3.0

    def test_ellipse_run_residuals(self):
        traj = ellipse_run(1.5, 1.0, -0.8, dt=1e-3, record_every=5, t_end=0.5)
        report = check_length_identities(traj)
        assert all(r.passed for r in report)

    def test_too_few_snapshots(self):
        traj = circle_run(1.0, -1.0, t_end=0.02, dt=1e-2, record_every=1)
        with pytest.raises(InsufficientData):
            check_length_identities(traj)


class TestOutcome:
    def test_fast_shrinking_circle(self):
        traj = circle_run(1.0, -2.0, N=128)
        rep = classify_outcome(traj)
        assert rep.predicted == "FiniteTime"
        assert rep.T_star == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
        assert rep.observed_t == pytest.approx(0.5 * math.log(3.0), abs=1e-2)
        assert rep.agreement
        assert rep.sub_label == "PointCollapse"

    def test_expanding_ellipse_is_long_time(self):
        traj = ellipse_run(1.5, 1.0, 1.0)
        rep = classify_outcome(traj)
        assert rep.predicted == "LongTime"
        assert rep.observed_termination == "HorizonReached"
        assert rep.agreement

    def test_slow_shrinking_circle_is_still_long_time(self):
        # 1/zeta + f_min = 1 - 0.5 > 0: case (I) hypothesis holds
        traj = circle_run(1.0, -0.5)
        rep = classify_outcome(traj)
        assert rep.predicted == "LongTime"
        assert rep.agreement

    def test_middling_ellipse_is_indeterminate(self):
        # 1/zeta + f_min < 0 < 1/delta + f_max: neither hypothesis
        traj = ellipse_run(1.5, 1.0, -1.0, t_end=0.4)
        inputs = outcome_inputs_from_trajectory(traj)
        assert 1.0 / inputs.zeta + inputs.f_min < 0.0
        assert 1.0 / inputs.delta + inputs.f_max > 0.0
        rep = classify_outcome(traj)
        assert rep.predicted == "Indeterminate"
        assert rep.agreement

    def test_inputs_validation(self):
        with pytest.raises(InvalidConfig):
            OutcomeInputs(delta=0.0, zeta=1.0, f_min=0.0, f_max=0.0)
        with pytest.raises(InvalidConfig):
            OutcomeInputs(delta=2.0, zeta=1.0, f_min=0.0, f_max=0.0)
        with pytest.raises(InvalidConfig):
            OutcomeInputs(delta=1.0, zeta=1.0, f_min=1.0, f_max=0.0)

    def test_T_star_is_derived_not_stored(self):
        shrinking = OutcomeInputs(delta=1.0, zeta=1.0, f_min=-2.0, f_max=-2.0)
        assert shrinking.T_star == comparison_horizon(1.0, -2.0)
        assert OutcomeInputs(delta=1.0, zeta=2.0, f_min=-0.5, f_max=-0.5).T_star is None
        with pytest.raises(TypeError):
            OutcomeInputs(delta=1.0, zeta=1.0, f_min=-2.0, f_max=-2.0, T_star=0.1)

    def test_comparison_horizon_requires_shrinking_hypothesis(self):
        with pytest.raises(InvalidConfig):
            comparison_horizon(1.0, -0.5)
        assert comparison_horizon(1.0, -2.0) == \
            pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_extracted_inputs_match_circle_data(self):
        traj = circle_run(1.0, -2.0)
        inputs = outcome_inputs_from_trajectory(traj)
        assert inputs.delta == pytest.approx(1.0, abs=1e-9)
        assert inputs.zeta == pytest.approx(1.0, abs=1e-9)
        assert inputs.f_min == inputs.f_max == -2.0
        assert inputs.T_star == pytest.approx(0.5 * math.log(3.0), abs=1e-9)


class TestSphereIdentities:
    def test_metric_residual_closed_form(self):
        assert metric_acceleration_residual(2, 1.0, 0.0, 0.5) <= 1e-10

    def test_metric_residual_at_time_zero(self):
        assert metric_acceleration_residual(3, 1.2, 0.4, 0.0) <= 1e-12

    def test_metric_residual_finite_difference(self):
        r = metric_acceleration_residual(2, 1.0, 0.0, 0.5, method="finite_difference")
        assert r <= 1e-6

    def test_mean_curvature_residual_closed_form(self):
        assert mean_curvature_acceleration_residual(2, 1.0, 0.0, 0.5) <= 1e-10

    def test_mean_curvature_residual_finite_difference(self):
        r = mean_curvature_acceleration_residual(2, 1.0, 0.0, 0.5,
                                                 method="finite_difference")
        assert r <= 1e-6

    def test_mean_curvature_assembly_agrees_with_direct_differencing(self):
        # independent check that -1/r + 2n rt^2/r^3 really is (n/r)''
        n, r0, r1, t = 3, 1.1, 0.3, 0.4
        g = sphere_geometry(n)
        dt = 1e-5
        H = [n / closed_form_radius(g, r0, r1, t + s) for s in (-dt, 0.0, dt)]
        H_tt = (H[0] - 2 * H[1] + H[2]) / dt**2
        r = closed_form_radius(g, r0, r1, t)
        r_t = (closed_form_radius(g, r0, r1, t + dt)
               - closed_form_radius(g, r0, r1, t - dt)) / (2 * dt)
        assert -1.0 / r + 2 * n * r_t**2 / r**3 == pytest.approx(H_tt, abs=1e-5)

    @pytest.mark.parametrize("residual", [metric_acceleration_residual,
                                          mean_curvature_acceleration_residual])
    def test_scale_covariance(self, residual):
        for scale in (2.0, 0.5):
            assert residual(2, scale * 1.0, scale * 0.3, 0.4) <= 1e-10

    @pytest.mark.parametrize("residual", [metric_acceleration_residual,
                                          mean_curvature_acceleration_residual])
    def test_domain_guards(self, residual):
        with pytest.raises(OutOfDomain):
            residual(2, 1.0, 0.0, -0.1)
        # d_plus < 0 gives a finite horizon; past it the sphere is gone
        with pytest.raises(OutOfDomain):
            residual(2, 1.0, -2.0, 10.0)

    def test_simons_identity(self):
        assert check_simons_sphere(2, 1.0) <= 1e-12
        assert check_simons_sphere(5, 3.7) <= 1e-12
        assert check_simons_sphere(5, 7.4) <= 1e-12


def test_containment_margin_matches_direct_scan():
    # recompute the margin by brute force over aligned snapshots
    outer = circle_run(2.0, 0.5, t_end=0.5)
    inner = circle_run(1.0, 0.3, t_end=0.5)
    rec = check_containment(outer, inner)
    gaps = []
    for so, si in zip(outer.snapshots, inner.snapshots):
        gaps.append(np.min(so.S - si.S))
    assert rec.worst == pytest.approx(min(gaps), abs=1e-12)
