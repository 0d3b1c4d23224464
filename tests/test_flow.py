"""Support-function PDE solver: RHS, stepping, full runs, termination."""
import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest

import himcf.flow
import himcf.grids
import himcf.support
from himcf.errors import CflViolation, ConvexityLost, InvalidConfig, NonFinite
from himcf.flow import (
    _BISECT_TOL,
    DEFAULT_CFL_SAFETY,
    FIXED_DT_CFL_LIMIT,
    SUPPORT_CFL_SAFETY,
    FlowConfig,
    cfl_bound,
    fixed_step_count,
    rk4,
    run_support_flow,
    run_support_flows,
    step_support,
)
from himcf.grids import TWO_PI, AngleGrid, support_derivatives
from himcf.presets import circle_support, cosine_series, ellipse_support
from himcf.support import SupportState, default_eps_convex, support_lengths


def fd_rhs(S, V, dtheta):
    """Independent 4th-order finite-difference rendering of the acceleration."""
    def roll(a, k):
        return np.roll(a, -k)
    V_th = (-roll(V, 2) + 8 * roll(V, 1) - 8 * roll(V, -1) + roll(V, -2)) / (12 * dtheta)
    S_thth = (-roll(S, 2) + 16 * roll(S, 1) - 30 * S + 16 * roll(S, -1)
              - roll(S, -2)) / (12 * dtheta**2)
    rho = S_thth + S
    return V_th**2 / rho + rho


def retained_bytes_per_snapshot(run):
    """Bytes that the trajectory of run() retains, per recorded snapshot.

    A first run fills the grid and FFT caches, so the traced second run
    counts only what its trajectory keeps alive.
    """
    run()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(traj.times), traj


def acceleration(s):
    """The acceleration row of the stage right-hand side at a state (stage 1 of a step)."""
    stage = himcf.flow._Stages()[(1, 2, 2, s.grid.N)]
    return stage.rhs(s.sv[None], support_derivatives(s.sv)[None])[0, 1]


class TestRhs:
    def test_spatially_constant_state_reduces_to_circle_ode(self):
        grid = AngleGrid(64)
        for r, v in [(1.0, -1.0), (2.5, 0.3)]:
            s = SupportState(grid=grid, S=np.full(64, r), V=np.full(64, v))
            np.testing.assert_allclose(acceleration(s), r, atol=1e-12)

    def test_cosine_velocity_perturbation(self):
        grid = AngleGrid(64)
        r, v = 2.0, -0.5
        s = SupportState(grid=grid, S=np.full(64, r),
                         V=v + 0.01 * np.cos(grid.theta))
        expected = (0.01 * np.sin(grid.theta)) ** 2 / r + r
        np.testing.assert_allclose(acceleration(s), expected, atol=1e-12)

    def test_against_finite_difference_oracle(self):
        grid = AngleGrid(256)
        rng = np.random.default_rng(11)
        S = 2.0 + 0.1 * np.cos(grid.theta) + 0.05 * np.cos(2 * grid.theta) \
            + 0.02 * np.sin(3 * grid.theta)
        V = 0.3 * np.sin(grid.theta) + 0.1 * rng.uniform() * np.cos(2 * grid.theta)
        s = SupportState(grid=grid, S=S, V=V)
        np.testing.assert_allclose(acceleration(s), fd_rhs(S, V, TWO_PI / grid.N),
                                   atol=1e-6)

    def test_convexity_loss_raises(self):
        grid = AngleGrid(64)
        s = SupportState(grid=grid, S=1.0 + 0.5 * np.cos(4 * grid.theta),
                         V=np.zeros(64))
        with pytest.raises(ConvexityLost):
            acceleration(s)


class TestStep:
    def test_single_step_tracks_circle_closed_form(self):
        s = circle_support(AngleGrid(128), 1.0, speed=-1.0)
        out = step_support(s, 1e-3)
        np.testing.assert_allclose(out.S, math.exp(-1e-3), atol=1e-12)
        assert out.t == pytest.approx(1e-3)

    def test_parity_preserved(self):
        grid = AngleGrid(64)
        S = 1.5 + 0.1 * np.cos(grid.theta) + 0.03 * np.cos(3 * grid.theta)
        V = -0.2 + 0.05 * np.cos(2 * grid.theta)
        out = step_support(SupportState(grid=grid, S=S, V=V), 1e-3)
        flip = np.concatenate([[0], np.arange(63, 0, -1)])  # theta -> -theta
        np.testing.assert_allclose(out.S, out.S[flip], atol=1e-12)
        np.testing.assert_allclose(out.V, out.V[flip], atol=1e-12)

    def test_change_bounded_by_velocity(self):
        s = ellipse_support(AngleGrid(128), 1.2, 1.0, speed=0.5)
        dt = 1e-3
        out = step_support(s, dt)
        assert np.max(np.abs(out.S - s.S)) <= dt * np.max(np.abs(s.V)) + 10 * dt**2


def test_rk4_has_the_classical_amplification_factor():
    # y' = lam * y: one step multiplies y by the degree-4 Taylor polynomial
    # of exp(z), z = lam * dt, for real, imaginary and complex lam alike.
    lam = np.array([[-1.0, 2.5, 3.0j, -0.7 + 1.9j, -40.0],
                    [0.5, -2.0j, 1.0, 7.0, 0.0]])
    y0 = np.array([[1.0 + 0j], [2.0 + 0j]]) * np.ones(5)
    dt = 0.1
    got = rk4(lambda y: lam * y, y0, dt, lam * y0)
    z = lam * dt
    expected = y0 * (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


class TestRunSupportFlow:
    def test_circle_decay(self):
        traj = run_support_flow(np.ones(128), -np.ones(128),
                                FlowConfig(N=128, t_end=1.0))
        assert traj.termination.kind == "HorizonReached"
        final = traj.snapshots[-1]
        assert final.t == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(final.S - math.exp(-1.0))) <= 1e-5

    def test_fast_shrinking_circle_terminates_on_schedule(self):
        traj = run_support_flow(np.ones(128), -2.0 * np.ones(128),
                                FlowConfig(N=128, t_end=1.0))
        assert traj.termination.kind in ("LengthVanished", "CurvatureBlowup")
        assert traj.termination.t == pytest.approx(0.5 * math.log(3.0), abs=1e-2)

    def test_expanding_ellipse_reaches_horizon_with_growing_length(self):
        grid = AngleGrid(128)
        s0 = ellipse_support(grid, 1.5, 1.0, speed=1.0)
        traj = run_support_flow(s0.S, s0.V, FlowConfig(N=128, t_end=1.0,
                                                       record_every=5))
        assert traj.termination.kind == "HorizonReached"
        lengths = support_lengths(traj.data[:, 0])
        assert np.all(np.diff(lengths) > 0)

    @pytest.mark.parametrize("S0, V0, error", [
        (np.ones(64), np.zeros(32), ValueError),
        (np.ones(64), np.full(64, np.nan), NonFinite),
        (np.ones(32), np.zeros(32), InvalidConfig),
    ])
    def test_bad_initial_data_raises_its_own_error(self, S0, V0, error):
        with pytest.raises(error):
            run_support_flow(S0, V0, FlowConfig(N=64, dt=1e-2, t_end=0.1))

    def test_snapshot_cadence_and_monotone_times(self):
        traj = run_support_flow(np.ones(64), np.zeros(64),
                                FlowConfig(N=64, dt=1e-2, t_end=0.2,
                                           record_every=4))
        times = traj.times
        assert np.all(np.diff(times) > 0)
        np.testing.assert_allclose(np.diff(times)[:-1], 4e-2, atol=1e-12)
        assert times[-1] == pytest.approx(0.2)

    def test_fixed_step_policing(self):
        s0 = circle_support(AngleGrid(64), 1.0, speed=-1.0)
        bound = cfl_bound([s0.sv, support_derivatives(s0.sv)])
        with pytest.raises(CflViolation):
            run_support_flow(s0.S, s0.V,
                             FlowConfig(N=64, dt=2.0 * bound, t_end=0.5))

    def test_parity_preserved_over_run(self):
        grid = AngleGrid(64)
        S0 = 1.5 + 0.1 * np.cos(2 * grid.theta)
        V0 = 0.2 * np.cos(grid.theta)
        traj = run_support_flow(S0, V0, FlowConfig(N=64, t_end=0.5,
                                                   record_every=3))
        flip = np.concatenate([[0], np.arange(63, 0, -1)])
        for snap in traj.snapshots:
            np.testing.assert_allclose(snap.S, snap.S[flip], atol=1e-10)

    def test_convergence_is_fourth_order(self):
        exact = math.exp(-0.5)
        errs = []
        for dt in (5e-3, 2.5e-3):
            traj = run_support_flow(np.ones(32), -np.ones(32),
                                    FlowConfig(N=32, dt=dt, t_end=0.5))
            errs.append(abs(float(traj.snapshots[-1].S[0]) - exact))
        assert errs[0] / errs[1] >= 8.0


class TestDerivativeReuse:
    """run_support_flow reuses each accepted state's S''+S and V_theta."""

    N, DT, T_END = 64, 1e-2, 0.2

    def initial(self):
        grid = AngleGrid(self.N)
        s0 = ellipse_support(grid, 1.3, 1.0, speed=0.4)
        return s0.S, s0.V + 0.1 * np.cos(2 * grid.theta)

    def test_snapshots_equal_chained_public_steps(self):
        S0, V0 = self.initial()
        traj = run_support_flow(S0, V0, FlowConfig(N=self.N, dt=self.DT,
                                                   t_end=self.T_END))
        # step_support on a fresh state computes its own first stage.
        state = SupportState(grid=AngleGrid(self.N), S=S0, V=V0)
        chained = [state]
        while state.t < self.T_END - 1e-12:
            state = step_support(state, min(self.DT, self.T_END - state.t))
            chained.append(state)
        assert len(traj.snapshots) == len(chained) == 21
        for a, b in zip(traj.snapshots, chained):
            assert a.t == b.t
            assert np.array_equal(a.S, b.S) and np.array_equal(a.V, b.V)

    def test_four_stacked_transforms_per_accepted_step(self, monkeypatch):
        # The kernel body runs once for the initial states' validation (the
        # set-up constant, through the public support_derivatives), then per
        # accepted step once for each of stages 2-4 and once to validate the
        # candidates; the CFL bound, stage 1 and the final margin reuse a
        # validated state's pair.  A batch of B members pays the same count:
        # every call takes a (B, 2, N) stack.
        SETUP_CALLS = 1
        kernel = himcf.grids.support_pair
        assert himcf.flow.support_pair is kernel
        S0, V0 = self.initial()
        for B in (1, 2):
            calls = []

            def counted(sv, *args):
                calls.append(np.shape(sv))
                return kernel(sv, *args)

            monkeypatch.setattr(himcf.flow, "support_pair", counted)
            monkeypatch.setattr(himcf.grids, "support_pair", counted)
            trajs = run_support_flows([S0, 1.5 * S0][:B], [V0, V0][:B],
                                      FlowConfig(N=self.N, dt=self.DT, t_end=self.T_END))
            steps = len(trajs[0].snapshots) - 1
            assert steps == 20
            assert len(calls) == 4 * steps + SETUP_CALLS
            assert set(calls) == {(B, 2, self.N)}
            for traj in trajs:
                assert traj.termination.kind == "HorizonReached"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_nonfinite_stage_input_raises_through_the_prepared_stage(self, bad):
        # Every stage input passes the kernel body's finiteness check: a value
        # put into the stage buffer, and a step whose stage-2 input overflows.
        N = self.N
        s0 = circle_support(AngleGrid(N), 1.0, -1e300)
        work = himcf.flow._Stages()
        stage = work[(1, 2, 2, N)]
        stage.u[...] = s0.sv
        stage.u[0, 0, 5] = bad
        with pytest.raises(NonFinite):
            stage.rhs(stage.u)
        members = np.array([[s0.sv, support_derivatives(s0.sv)]])
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            himcf.flow.step_supports(members, 1e10, work)

    def test_a_batched_run_builds_no_support_state(self, monkeypatch):
        S0, V0 = self.initial()
        built = []
        post_init = SupportState.__post_init__
        monkeypatch.setattr(SupportState, "__post_init__",
                            lambda state: (built.append(state.t), post_init(state))[1])
        run_support_flows([S0, 1.5 * S0], [V0, V0],
                          FlowConfig(N=self.N, dt=self.DT, t_end=self.T_END))
        assert built == []

    def test_recorded_snapshots_hold_only_the_floats(self):
        s0 = ellipse_support(AngleGrid(128), 2.0, 1.0, speed=0.5)
        per_snapshot, traj = retained_bytes_per_snapshot(
            lambda: run_support_flow(s0.S, s0.V, FlowConfig(N=128, dt=1e-3, t_end=0.5)))
        assert len(traj.times) == 501
        assert per_snapshot <= 1.05 * 2 * 128 * 8


@functools.lru_cache(maxsize=1)
def _batch_pool():
    """Members on one fixed-dt schedule; three of them end before t_end."""
    grid = AngleGrid(64)
    pinched = circle_support(grid, 1.0, cosine_series([-1.0, 0.0, 0.0, 0.5], grid.theta))
    return (circle_support(grid, 2.0, -1.5),         # ellipse-in-circle's outer: lasts
            ellipse_support(grid, 1.2, 0.8, -1.5),   # its inner: ends at the floor
            circle_support(grid, 1.0, -2.0),         # collapses before t_end
            ellipse_support(grid, 1.3, 1.0, 0.4),    # expands
            pinched)                                 # a stage loses S''+S > 0 mid-batch


_BATCH_CFG = FlowConfig(N=64, dt=1e-3, t_end=0.6, eps_convex=2e-2, record_every=7)


@functools.lru_cache(maxsize=None)
def _solo_run(i):
    s = _batch_pool()[i]
    return run_support_flow(s.S, s.V, _BATCH_CFG)


class TestBatchInvariance:
    """run_support_flows on k members equals k solo runs bit for bit."""

    @pytest.mark.parametrize("order", [(1,), (4,), (0, 1), (1, 0), (2, 4, 0),
                                       (4, 3, 1, 2), (0, 1, 2, 3)])
    def test_batch_equals_solo_runs(self, order):
        pool = _batch_pool()
        batch = run_support_flows([pool[i].S for i in order], [pool[i].V for i in order],
                                  _BATCH_CFG)
        assert len(batch) == len(order)
        for i, traj in zip(order, batch):
            solo = _solo_run(i)
            assert traj.termination == solo.termination
            assert traj.monitor == solo.monitor
            assert len(traj.snapshots) == len(solo.snapshots)
            for a, b in zip(traj.snapshots, solo.snapshots):
                assert a.t == b.t
                assert np.array_equal(a.S, b.S) and np.array_equal(a.V, b.V)

    def test_members_end_on_their_own(self):
        kinds = [_solo_run(i).termination.kind for i in range(5)]
        assert kinds == ["HorizonReached", "CurvatureBlowup", "CurvatureBlowup",
                         "HorizonReached", "CurvatureBlowup"]
        ends = sorted(_solo_run(i).termination.t for i in (1, 2, 4))
        assert ends[-1] < _BATCH_CFG.t_end and ends[0] < ends[1] < ends[2]

    def test_a_stage_failure_in_the_batch_is_found_member_by_member(self, monkeypatch):
        calls = []
        real_step = himcf.flow.step_supports

        def spy(states, dt, **work):
            try:
                out = real_step(states, dt, **work)
            except ConvexityLost:
                calls.append((len(states), "raised"))
                raise
            calls.append((len(states), "ok"))
            return out

        monkeypatch.setattr(himcf.flow, "step_supports", spy)
        pool = _batch_pool()
        run_support_flows([pool[0].S, pool[4].S], [pool[0].V, pool[4].V], _BATCH_CFG)
        k = calls.index((2, "raised"))
        assert calls[k + 1:k + 3] == [(1, "ok"), (1, "raised")]

    def test_adaptive_batch_is_invalid_config(self):
        pool = _batch_pool()
        with pytest.raises(InvalidConfig, match="fixed dt"):
            run_support_flows([pool[0].S, pool[3].S], [pool[0].V, pool[3].V],
                              FlowConfig(N=64, t_end=0.1))

    def test_fixed_dt_cfl_violation_names_the_first_violating_member(self):
        grid = AngleGrid(64)
        calm = circle_support(grid, 1.0, 0.5)
        steep = [circle_support(grid, 1.0, cosine_series([0.0, amp], grid.theta))
                 for amp in (80.0, 160.0)]
        cfg = FlowConfig(N=64, dt=2e-3, t_end=0.01)
        bounds = [FIXED_DT_CFL_LIMIT * cfl_bound([s.sv, support_derivatives(s.sv)]) for s in steep]
        with pytest.raises(CflViolation, match=f"{bounds[0]:.3e}"):
            run_support_flows([calm.S, steep[0].S, steep[1].S],
                              [calm.V, steep[0].V, steep[1].V], cfg)
        with pytest.raises(CflViolation, match=f"{bounds[1]:.3e}"):
            run_support_flows([steep[1].S, calm.S, steep[0].S],
                              [steep[1].V, calm.V, steep[0].V], cfg)


class TestSigmaField:
    def test_initial_field_is_the_given_speed(self):
        traj = run_support_flow(np.ones(64), -np.ones(64),
                                FlowConfig(N=64, t_end=0.3, record_every=2))
        np.testing.assert_allclose(traj.snapshots[0].V, -1.0, atol=1e-12)

    def test_circle_speed_accumulates_the_radius_integral(self):
        # dV/dt = S on a circle, so V(t) = f + integral of r
        traj = run_support_flow(np.ones(64), -np.ones(64),
                                FlowConfig(N=64, dt=1e-3, t_end=0.5,
                                           record_every=100))
        t = traj.snapshots[-1].t
        expected = -1.0 + (1.0 - math.exp(-t))    # integral of exp(-s)
        np.testing.assert_allclose(traj.snapshots[-1].V, expected, atol=1e-6)


class TestConfigValidation:
    def test_bad_dt(self):
        with pytest.raises(InvalidConfig):
            FlowConfig(dt=0.0)

    def test_bad_safety(self):
        # No safety factor is settable, so none outside (0, 0.9] can be in force:
        # adaptive steps take the default and a fixed dt is policed at the RK4 limit.
        with pytest.raises(TypeError, match="cfl_safety"):
            FlowConfig(cfl_safety=0.95)
        assert FlowConfig().safety == DEFAULT_CFL_SAFETY
        assert FlowConfig(dt=1e-3).safety == FIXED_DT_CFL_LIMIT
        assert 0.0 < DEFAULT_CFL_SAFETY < FIXED_DT_CFL_LIMIT == 0.9

    def test_bad_horizon_and_cadence(self):
        with pytest.raises(InvalidConfig):
            FlowConfig(t_end=0.0)
        with pytest.raises(InvalidConfig):
            FlowConfig(record_every=0)

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0, math.inf])
    def test_convexity_floor_must_be_positive_and_finite(self, eps):
        with pytest.raises(InvalidConfig, match="eps_convex"):
            FlowConfig(eps_convex=eps)

    def test_convexity_floor_is_the_setting_or_the_length_default(self):
        assert FlowConfig(eps_convex=2e-2).convexity_floor(7.0) == 2e-2
        assert FlowConfig().convexity_floor(7.0) == default_eps_convex(7.0)

    def test_fixed_dt_beyond_the_step_budget_is_rejected_up_front(self):
        budget = himcf.flow._MAX_STEPS
        assert fixed_step_count(1.0 / budget, 1.0) == budget
        FlowConfig(dt=1.0 / budget, t_end=1.0)      # constructed, never run
        for dt, t_end in ((1.0 / (budget + 1), 1.0), (1e-9, 1.0), (5e-324, 1e300)):
            with pytest.raises(InvalidConfig, match="step budget"):
                FlowConfig(dt=dt, t_end=t_end)
        FlowConfig(t_end=1e300)                     # adaptive runs are not counted


# The allocating support step that the in-place one replaced: every operation
# makes a new array, in the arithmetic order the in-place step must keep.

def _reference_kernel(sv):
    if not np.isfinite(sv).all():
        raise NonFinite("non-finite samples (an overflow or NaN)")
    n = sv.shape[-1]
    d = np.fft.irfft(np.fft.rfft(sv) * himcf.grids.kernel_plan(n)[0], n)
    d[..., 0, :] += sv[..., 0, :]
    return d


def _reference_rhs(y, d):
    rho = d[..., 0, :]
    if rho.min() <= 0.0:
        raise ConvexityLost(f"S''+S = {rho.min():.3e} <= 0")
    out = np.empty_like(y)
    out[..., 0, :] = y[..., 1, :]
    out[..., 1, :] = d[..., 1, :]**2 / rho + rho
    return out


def reference_step(members, dt, work=None):
    """step_supports on new arrays: stage inputs y + 0.5*dt*k, then y + dt/6*(k1 + ... + k4)."""
    members = np.asarray(members, dtype=float)
    y = members[:, 0]
    k1 = _reference_rhs(y, members[:, 1])
    k2 = _reference_rhs(y + 0.5 * dt * k1, _reference_kernel(y + 0.5 * dt * k1))
    k3 = _reference_rhs(y + 0.5 * dt * k2, _reference_kernel(y + 0.5 * dt * k2))
    k4 = _reference_rhs(y + dt * k3, _reference_kernel(y + dt * k3))
    cand = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.stack([cand, _reference_kernel(cand)], axis=1)


class TestInPlaceStep:
    """run_support_flows equals runs stepped by reference_step, bit for bit."""

    def assert_reference_runs(self, S0s, V0s, cfg, monkeypatch):
        runs = run_support_flows(S0s, V0s, cfg)
        with monkeypatch.context() as m:
            m.setattr(himcf.flow, "step_supports", reference_step)
            references = run_support_flows(S0s, V0s, cfg)
        for run, ref in zip(runs, references, strict=True):
            assert np.array_equal(run.times, ref.times)
            assert np.array_equal(run.data, ref.data)
            assert run.termination == ref.termination
            # The CFL margin and the final convexity margin, exactly.
            assert run.monitor == ref.monitor
        return runs

    @pytest.mark.parametrize("N", [64, 512])
    @pytest.mark.parametrize("B", [1, 2])
    def test_fixed_dt(self, N, B, monkeypatch):
        grid = AngleGrid(N)
        s0 = ellipse_support(grid, 1.3, 1.0, speed=0.4)
        V0 = s0.V + 0.1 * np.cos(2 * grid.theta)
        runs = self.assert_reference_runs([s0.S, 1.5 * s0.S][:B], [V0, -V0][:B],
                                          FlowConfig(N=N, dt=1e-3, t_end=0.05), monkeypatch)
        assert [len(run.times) for run in runs] == [51] * B

    @pytest.mark.parametrize("N", [64, 128, 256, 512])
    def test_adaptive_expanding_run(self, N, monkeypatch):
        s0 = ellipse_support(AngleGrid(N), 2.0, 1.0, speed=0.5)
        [run] = self.assert_reference_runs([s0.S], [s0.V], FlowConfig(N=N, t_end=0.3),
                                           monkeypatch)
        assert run.termination.kind == "HorizonReached"

    def test_collapsing_circle_ends_by_bisection(self, monkeypatch):
        [run] = self.assert_reference_runs([np.ones(64)], [-2.0 * np.ones(64)],
                                           FlowConfig(N=64, t_end=1.0), monkeypatch)
        assert run.termination.kind == "LengthVanished"
        assert run.termination.t == pytest.approx(0.5 * math.log(3.0), abs=1e-5)

    def test_stage_failure_retried_member_by_member(self, monkeypatch):
        pool = _batch_pool()
        runs = self.assert_reference_runs([pool[0].S, pool[4].S], [pool[0].V, pool[4].V],
                                          _BATCH_CFG, monkeypatch)
        assert [run.termination.kind for run in runs] == ["HorizonReached", "CurvatureBlowup"]


def test_profiled_call_counts_of_a_fixed_dt_run_repeat_exactly(bench):
    # The instrument behind `scripts/bench.py --counts`: sys.setprofile call
    # counts are exact, so they can resolve per-step work that wall time
    # cannot.  They change with the Python and numpy versions, so the
    # ceilings in test_call_budget.py are kept per version.
    s0 = ellipse_support(AngleGrid(128), 2.0, 1.0, speed=0.5)
    cfg = FlowConfig(N=128, dt=1e-3, t_end=0.05)

    def run():
        return run_support_flow(s0.S, s0.V, cfg)

    run()
    counts = [bench.profiled_calls(run)[0] for _ in range(3)]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["python"] > 50 and counts[0]["c"] > 50


# Collapsing exact circles (r0, r1): (1, -2) and perfbench spectral-adaptive
# case 16 of seeds 1 and 7, pinned as numbers.
COLLAPSING_CIRCLES = [(1.0, -2.0),
                      (1.0851118279097927, -2.0411220939114645),
                      (0.8193622924630088, -1.5794684101771093)]


class TestCollapseKind:
    """A point collapse ends LengthVanished at its time, whatever the step size."""

    @pytest.mark.parametrize("safety", [0.125, 0.25, 0.5, 0.6, 0.7, 0.8])
    @pytest.mark.parametrize("N", [64, 128, 256, 512])
    @pytest.mark.parametrize("r0, r1", COLLAPSING_CIRCLES)
    def test_a_collapsing_circle_ends_length_vanished_at_its_collapse_time(
            self, r0, r1, N, safety, monkeypatch):
        monkeypatch.setattr(himcf.flow, "SUPPORT_CFL_SAFETY", safety)
        traj = run_support_flow(np.full(N, r0), np.full(N, r1), FlowConfig(N=N, t_end=1.0))
        assert traj.termination.kind == "LengthVanished"
        assert abs(traj.termination.t - math.atanh(r0 / abs(r1))) <= 2 * _BISECT_TOL

    @pytest.mark.parametrize("safety", [0.25, 0.6, 0.8])
    @pytest.mark.parametrize("N", [64, 128])
    def test_a_pinch_of_a_long_curve_stays_a_convexity_loss(self, N, safety, monkeypatch):
        # The unit circle at speed 0.5 cos 3 theta: S''+S reaches 0 at three
        # angles while L' = int V dtheta = 0 keeps L near 2 pi, so the length
        # rule, asked once at the sign loss, must say no.
        theta = AngleGrid(N).theta
        asked = []
        rule = himcf.flow.length_vanishes

        def spy(member, width, L0):
            asked.append(bool(rule(member, width, L0)))
            return asked[-1]

        monkeypatch.setattr(himcf.flow, "SUPPORT_CFL_SAFETY", safety)
        monkeypatch.setattr(himcf.flow, "length_vanishes", spy)
        traj = run_support_flow(np.ones(N), 0.5 * np.cos(3 * theta), FlowConfig(N=N, t_end=1.0))
        assert traj.termination.kind == "ConvexityLost"
        assert traj.termination.t < 0.4
        assert traj.length(-1) == pytest.approx(traj.length(0), rel=0.2)
        assert asked == [False]

    def test_a_whole_step_failed_only_by_its_stages_is_retaken(self, monkeypatch):
        # At this safety the step before the collapse lands its candidate at
        # r > 0 but its fourth stage below 0: every sub-step is valid, so the
        # step's end is retaken from the last one and the run goes on.
        r0, r1 = 0.6260230153735773, -1.251132113796327
        monkeypatch.setattr(himcf.flow, "SUPPORT_CFL_SAFETY", 0.8)
        traj = run_support_flow(np.full(64, r0), np.full(64, r1), FlowConfig(N=64, t_end=1.0))
        assert traj.termination.kind == "LengthVanished"
        assert abs(traj.termination.t - math.atanh(r0 / abs(r1))) <= 2 * _BISECT_TOL

    def test_adaptive_support_steps_take_their_own_safety(self):
        assert 0.0 < DEFAULT_CFL_SAFETY < SUPPORT_CFL_SAFETY < FIXED_DT_CFL_LIMIT
        s0 = ellipse_support(AngleGrid(64), 2.0, 1.0, speed=0.5)
        traj = run_support_flow(s0.S, s0.V, FlowConfig(N=64, t_end=0.5))
        bound = cfl_bound([s0.sv, support_derivatives(s0.sv)])
        assert traj.times[1] == SUPPORT_CFL_SAFETY * bound
