"""Closed-form radial solutions, regime classification, integration, forcing."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import himcf.radial
from himcf.errors import (
    InvalidConfig,
    InvalidForcing,
    InvalidInitialRadius,
)
from himcf.radial import (
    CIRCLE,
    CYLINDER,
    CYLINDER_HALF_FACTOR_FLAG,
    RadialGeometry,
    classify_regime,
    closed_form_radius,
    closed_form_velocity,
    forced_radial,
    integrate_radial_ode,
    sphere_geometry,
)


def bisect_extinction(geometry, r0, r1, hi=60.0):
    """Independent horizon oracle: root of the closed form by pure bisection."""
    if closed_form_radius(geometry, r0, r1, hi) > 0:
        return None
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if closed_form_radius(geometry, r0, r1, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestClosedForm:
    def test_initial_condition(self):
        assert closed_form_radius(sphere_geometry(2), 1.0, 0.0, 0.0) == 1.0

    def test_exponential_circle_decay(self):
        # r1 = -r0 collapses the growing mode, leaving r0*exp(-t)
        assert closed_form_radius(CIRCLE, 1.0, -1.0, 2.0) == \
            pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_sphere_cosh_profile(self):
        assert closed_form_radius(sphere_geometry(2), 1.0, 0.0, math.sqrt(2)) == \
            pytest.approx(math.cosh(1.0), abs=1e-12)

    def test_velocity_is_time_derivative(self):
        g = sphere_geometry(3)
        t = 0.7
        dt = 1e-6
        fd = (closed_form_radius(g, 1.2, 0.4, t + dt)
              - closed_form_radius(g, 1.2, 0.4, t - dt)) / (2 * dt)
        assert closed_form_velocity(g, 1.2, 0.4, t) == pytest.approx(fd, abs=1e-8)

    def test_vectorized_in_t(self):
        t = np.linspace(0, 1, 5)
        r = closed_form_radius(CIRCLE, 1.0, -1.0, t)
        np.testing.assert_allclose(r, np.exp(-t), atol=1e-14)


class TestRegimes:
    def test_circle_infinite_time_convergence(self):
        rep = classify_regime(CIRCLE, 1.0, -1.0)
        assert rep.regime == "ConvergesToPointInfiniteTime"
        assert rep.T_max is None

    def test_circle_finite_time(self):
        rep = classify_regime(CIRCLE, 1.0, -2.0)
        assert rep.regime == "ConvergesToPointFiniteTime"
        assert rep.T_max == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_cylinder_horizon_has_half_factor(self):
        rep = classify_regime(CYLINDER, 1.0, -2.0)
        assert rep.T_max == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
        assert CYLINDER_HALF_FACTOR_FLAG in rep.flags

    def test_sphere_expands_forever(self):
        rep = classify_regime(sphere_geometry(2), 1.0, 1.0)
        assert rep.regime == "ExpandsForever"
        assert rep.d_plus == pytest.approx(1.0 + math.sqrt(2))

    def test_dip_then_expand(self):
        rep = classify_regime(sphere_geometry(2), 1.0, -0.5)
        assert rep.regime == "DipThenExpand"

    def test_cylinder_label_mentions_the_axis(self):
        rep = classify_regime(CYLINDER, 1.0, -2.0)
        assert "line" in rep.label

    def test_invalid_radius(self):
        with pytest.raises(InvalidInitialRadius):
            classify_regime(CIRCLE, 0.0, 1.0)
        with pytest.raises(InvalidInitialRadius):
            classify_regime(CIRCLE, -1.0, 1.0)

    @pytest.mark.parametrize("geometry", [CIRCLE, CYLINDER, sphere_geometry(2),
                                          sphere_geometry(5)])
    def test_against_bisection_oracle(self, geometry):
        # 100-point grid; extinction iff the closed form has a positive root
        r0s = np.linspace(0.2, 3.0, 10)
        r1s = np.linspace(-3.0, 1.5, 10)
        for r0 in r0s:
            for r1 in r1s:
                rep = classify_regime(geometry, float(r0), float(r1))
                t_oracle = bisect_extinction(geometry, float(r0), float(r1))
                finite = rep.regime == "ConvergesToPointFiniteTime"
                if finite:
                    assert t_oracle is not None
                    assert rep.T_max == pytest.approx(t_oracle, abs=1e-6)
                elif rep.regime == "ConvergesToPointInfiniteTime":
                    # decaying exponential: no positive root but r -> 0
                    assert closed_form_radius(geometry, r0, r1, 50.0) < 1e-12
                else:
                    assert t_oracle is None


class TestIntegrator:
    def test_circle_decay_to_time_one(self):
        traj = integrate_radial_ode(CIRCLE, 1.0, -1.0, 1e-3, 1.0)
        assert traj.extinction_time is None
        assert traj.r[-1] == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_sphere_matches_closed_form(self):
        traj = integrate_radial_ode(sphere_geometry(3), 2.0, 0.0, 1e-3, 1.0)
        exact = closed_form_radius(sphere_geometry(3), 2.0, 0.0, traj.times)
        np.testing.assert_allclose(traj.r, exact, atol=1e-10)

    def test_extinction_detection(self):
        traj = integrate_radial_ode(CIRCLE, 1.0, -2.0, 1e-4, 1.0)
        assert traj.extinction_time is not None
        assert traj.extinction_time == pytest.approx(0.5 * math.log(3.0), abs=1e-3)

    def test_energy_is_preserved(self):
        # E = r_t^2 - stiffness*r^2 is exactly conserved by the ODE
        g = sphere_geometry(2)
        traj = integrate_radial_ode(g, 1.0, -0.7, 1e-3, 2.0)
        E = traj.r_t**2 - g.stiffness * traj.r**2
        scale = max(abs(E[0]), 1e-12)
        assert np.max(np.abs(E - E[0])) <= 1e-8 * scale

    def test_dip_then_expand_has_interior_minimum(self):
        g = sphere_geometry(2)
        rep = classify_regime(g, 1.0, -0.5)
        assert rep.regime == "DipThenExpand"
        traj = integrate_radial_ode(g, 1.0, -0.5, 1e-3, 5.0 / g.lam)
        i = int(np.argmin(traj.r))
        assert 0 < i < traj.r.size - 1
        assert traj.r[i] < min(traj.r[0], traj.r[-1])

    def test_invalid_step_and_horizon(self):
        with pytest.raises(InvalidConfig):
            integrate_radial_ode(CIRCLE, 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(InvalidConfig):
            integrate_radial_ode(CIRCLE, 1.0, 0.0, 1e-3, -1.0)

    @pytest.mark.parametrize("r0", [math.nan, math.inf])
    def test_nonfinite_initial_radius_is_rejected(self, r0):
        with pytest.raises(InvalidInitialRadius, match="radius"):
            integrate_radial_ode(CIRCLE, r0, 0.0, 1e-3, 1.0)
        with pytest.raises(InvalidInitialRadius, match="radius"):
            forced_radial(CIRCLE, lambda t: 0.25, 0.25, 0.25, r0, 0.0, 1e-3, 1.0)

    @pytest.mark.parametrize("r1", [math.nan, math.inf, -math.inf])
    def test_nonfinite_initial_velocity_is_rejected(self, r1):
        with pytest.raises(InvalidInitialRadius, match="velocity"):
            integrate_radial_ode(CIRCLE, 1.0, r1, 1e-3, 1.0)
        with pytest.raises(InvalidInitialRadius, match="velocity"):
            forced_radial(CIRCLE, lambda t: 0.25, 0.25, 0.25, 1.0, r1, 1e-3, 1.0)

    def test_step_budget_is_checked_before_any_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a config beyond the step budget")

        monkeypatch.setattr(himcf.radial, "_rk4_step", no_step)
        with pytest.raises(InvalidConfig, match="step budget"):
            integrate_radial_ode(CIRCLE, 1.0, 0.0, 1e-12, 1.0)
        with pytest.raises(InvalidConfig, match="step budget"):
            forced_radial(CIRCLE, lambda t: 0.5, 0.5, 0.5, 1.0, 0.0, 1e-12, 2.0)

    def test_halving_dt_improves_fourth_order(self):
        exact = closed_form_radius(CIRCLE, 1.0, 0.5, 1.0)
        errs = []
        for dt in (2e-2, 1e-2):
            traj = integrate_radial_ode(CIRCLE, 1.0, 0.5, dt, 1.0)
            errs.append(abs(traj.r[-1] - exact))
        assert errs[0] / errs[1] >= 8.0


class TestForced:
    def test_zero_forcing_coincides_with_unforced(self):
        rep = forced_radial(sphere_geometry(2), lambda t: 0.0, 0.0, 0.0,
                            1.0, 0.0, 1e-3, 1.0)
        unforced = integrate_radial_ode(sphere_geometry(2), 1.0, 0.0, 1e-3, 1.0)
        np.testing.assert_allclose(rep.r, unforced.r, atol=1e-12)
        np.testing.assert_allclose(rep.r_lo, rep.r, atol=1e-12)
        np.testing.assert_allclose(rep.r_hi, rep.r, atol=1e-12)

    def test_sinusoidal_forcing_stays_bracketed(self):
        rep = forced_radial(sphere_geometry(2), lambda t: 0.5 * math.sin(t),
                            -0.5, 0.5, 1.0, 0.0, 1e-3, 2.0)
        assert rep.lower_margin >= -rep.tolerance
        assert rep.upper_margin >= -rep.tolerance
        assert np.all(rep.r_lo <= rep.r + rep.tolerance)
        assert np.all(rep.r <= rep.r_hi + rep.tolerance)

    def test_constant_forcing_matches_stiffened_closed_form(self):
        # circle stiffness 1 plus c = 0.5 behaves like lambda = sqrt(1.5)
        rep = forced_radial(CIRCLE, lambda t: 0.5, 0.5, 0.5, 1.0, 0.0, 1e-3, 1.0)
        lam = math.sqrt(1.5)
        exact = (0.5 * np.exp(lam * rep.times) + 0.5 * np.exp(-lam * rep.times))
        np.testing.assert_allclose(rep.r, exact, atol=1e-9)

    def test_nonfinite_forcing_rejected(self):
        with pytest.raises(InvalidForcing):
            forced_radial(CIRCLE, lambda t: float("nan"), -1.0, 1.0,
                          1.0, 0.0, 1e-3, 0.5)


class TestGeometryType:
    def test_stiffness_values(self):
        assert sphere_geometry(2).stiffness == 0.5
        assert sphere_geometry(4).stiffness == 0.25
        assert CYLINDER.stiffness == 1.0
        assert CIRCLE.stiffness == 1.0

    def test_sphere_dimension_bound(self):
        with pytest.raises(InvalidConfig):
            sphere_geometry(1)

    def test_lam_is_sqrt_stiffness(self):
        g = sphere_geometry(3)
        assert g.lam == pytest.approx(math.sqrt(1.0 / 3.0))


@settings(max_examples=40, deadline=None)
@given(
    r0=st.floats(0.2, 3.0),
    r1a=st.floats(-2.0, 2.0),
    bump=st.floats(0.0, 1.5),
    t=st.floats(0.0, 3.0),
    n=st.integers(2, 6),
)
def test_radius_is_monotone_in_initial_velocity(r0, r1a, bump, t, n):
    g = sphere_geometry(n)
    lo = closed_form_radius(g, r0, r1a, t)
    hi = closed_form_radius(g, r0, r1a + bump, t)
    assert hi >= lo - 1e-12
