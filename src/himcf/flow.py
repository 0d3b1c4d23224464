"""Support-function evolution of convex plane curves.

The flow in normal-angle gauge is the quasilinear wave equation

    S_tt = (S_theta_t)^2 / (S_thth + S) + (S_thth + S)
         = k (S_theta_t)^2 + 1/k,          k = 1/(S_thth + S),

integrated as the first-order system S' = V, V' = rhs with classical RK4 and
spectral theta-derivatives.  Each RK4 stage needs S_thth + S and V_theta;
both come from one FFT round trip of the stacked rows [S, V]
(grids.support_derivatives).  A state caches its pair in
SupportState.derivatives: the validation of an accepted step computes it,
and the next step reuses it for the CFL bound and as its first stage, so an
accepted step costs four stacked transforms.

The principal part has characteristic speeds |k S_theta_t| +- 1, giving the
CFL bound

    dt <= cfl_safety * dtheta / (max |k V_theta| + 1).

cfl_safety is capped at 0.9: with the spectral mode count N/2 the cap lands
on the imaginary-axis stability limit of classical RK4 (0.9*pi ~ 2.83).

A run's convexity floor eps comes from FlowConfig.convexity_floor alone: a
candidate with min S''+S <= eps, or a polygon with k >= 1/eps, ends the run.

Both curve solvers (this one and lagrangian.py) step through integrate (step
rule, bisection, recording) and rk4; only their discretizations differ.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import normal_angles, periodic_spline
from .errors import (CflViolation, ConvexityLost, DegenerateEdge, InvalidConfig, NotConvex,
                     OutOfDomain)
from .grids import TWO_PI, AngleGrid, support_derivatives
from .report import MonitorReport, margin_record
from .support import SupportState, convexity_check, default_eps_convex, length_from_support

LENGTH_VANISH_REL = 1e-6          # LengthVanished at L <= this * L(0)
DEFAULT_CFL_SAFETY = 0.5
FIXED_DT_CFL_LIMIT = 0.9          # policing bound for user-fixed steps
_BISECT_TOL = 1e-6                # absolute t-resolution of a located violation
_MAX_STEPS = 2 * 10**6


def fixed_step_count(dt: float, t_end: float) -> int:
    """Steps of size dt that reach t_end; InvalidConfig beyond _MAX_STEPS.

    Checked before the first step, so no run sets up or records more steps
    than the budget allows.
    """
    ratio = t_end / dt - 1e-12
    if not ratio <= _MAX_STEPS:
        raise InvalidConfig(
            f"t_end / dt = {t_end / dt:.3e} steps exceeds the step budget {_MAX_STEPS}")
    return int(math.ceil(ratio))


@dataclass(frozen=True)
class FlowConfig:
    """Solver knobs shared by the support and Lagrangian integrators.

    Exactly one stepping mode is active: fixed dt when dt is given, else
    adaptive CFL stepping with the given (or default) safety factor.
    eps_convex is the one settable convexity floor; see convexity_floor.
    """

    N: int = 128
    dt: float | None = None
    cfl_safety: float | None = None
    t_end: float = 1.0
    eps_convex: float | None = None     # None: default_eps_convex(L0) at run start
    record_every: int = 1

    def __post_init__(self):
        if self.eps_convex is not None and not 0.0 < self.eps_convex < math.inf:
            raise InvalidConfig(
                f"eps_convex must be positive and finite, got {self.eps_convex}")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise InvalidConfig(f"dt must be positive and finite, got {self.dt}")
        if self.cfl_safety is not None and not (0.0 < self.cfl_safety <= 0.9):
            raise InvalidConfig(
                f"cfl_safety must lie in (0, 0.9], got {self.cfl_safety}")
        if not 0.0 < self.t_end < math.inf:
            raise InvalidConfig(f"t_end must be positive and finite, got {self.t_end}")
        if self.record_every < 1:
            raise InvalidConfig("record_every must be >= 1")
        if self.dt is not None:
            fixed_step_count(self.dt, self.t_end)

    def convexity_floor(self, L0: float) -> float:
        """The run's floor: a state ends it once min S''+S <= floor (k >= 1/floor)."""
        return default_eps_convex(L0) if self.eps_convex is None else self.eps_convex

    @property
    def adaptive(self) -> bool:
        return self.dt is None

    @property
    def safety(self) -> float:
        if self.cfl_safety is not None:
            return self.cfl_safety
        return DEFAULT_CFL_SAFETY if self.adaptive else FIXED_DT_CFL_LIMIT

    def next_dt(self, bound: float, t: float) -> float:
        """Step size at time t given the state's CFL bound (before safety).

        Adaptive runs take safety * bound; a fixed dt that exceeds it raises
        CflViolation, and so does a step below the resolution of t or (short
        of landing) of t_end, which could only stall.  The last step is cut
        to land on t_end.
        """
        if self.adaptive:
            dt = min(self.safety * bound, self.t_end - t)
        else:
            dt = min(self.dt, self.t_end - t)
            if dt > self.safety * bound * (1.0 + 1e-12):
                raise CflViolation(
                    f"fixed dt = {self.dt:.3e} exceeds CFL bound "
                    f"{self.safety * bound:.3e} at t = {t:.6f}")
        t_next = t + dt
        if not t_next > t or (t_next < self.t_end and not self.t_end + dt > self.t_end):
            raise CflViolation(
                f"step {dt:.3e} at t = {t:.6e} is below the resolution of "
                f"t_end = {self.t_end} (CFL bound {bound:.3e}); the run "
                f"cannot reach t_end")
        return dt


@dataclass(frozen=True)
class Termination:
    kind: str    # HorizonReached | ConvexityLost | LengthVanished | CurvatureBlowup
    t: float
    theta: float | None = None


@dataclass(frozen=True)
class _Violation:
    kind: str
    theta: float | None = None


@dataclass(frozen=True)
class FlowTrajectory:
    snapshots: tuple            # SupportState or PlaneCurve, time-ordered
    termination: Termination
    monitor: MonitorReport

    def __post_init__(self):
        times = [s.t for s in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidConfig("snapshot times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    @property
    def is_support(self) -> bool:
        return isinstance(self.snapshots[0], SupportState)

    def snapshot_at(self, t: float, tol: float = 1e-9):
        times = self.times
        i = int(np.argmin(np.abs(times - t)))
        if abs(times[i] - t) > tol:
            raise OutOfDomain(
                f"no snapshot at t = {t}; nearest recorded time is {times[i]}")
        return self.snapshots[i]


def support_rhs(s: SupportState) -> np.ndarray:
    """Acceleration a = (V_theta)^2/(S''+S) + (S''+S); raises as convexity_check."""
    convexity_check(s)
    return _stage_rhs(s.V, *s.derivatives)[1]


def cfl_bound(s: SupportState) -> float:
    """Largest stable dt (before safety factor) at a state with S''+S > 0."""
    rho, V_th = s.derivatives
    k = 1.0 / rho
    speed = float(np.max(np.abs(k * V_th))) + 1.0
    return s.grid.dtheta / speed


def _stage_rhs(V, rho, V_th):
    # Stages only guard against sign loss; the eps ceiling is enforced on
    # completed candidate states, where the violation can be classified.
    if np.min(rho) <= 0.0:
        raise ConvexityLost(f"S''+S = {np.min(rho):.3e} <= 0")
    return V, V_th**2 / rho + rho


def _stage(S, V):
    return _stage_rhs(V, *support_derivatives(S, V))


def rk4(rhs, y, dt: float, k1):
    """Classical RK4 step of y = (a, b), y' = rhs(a, b); k1 = rhs(a, b) is given."""
    a, b = y
    k1a, k1b = k1
    k2a, k2b = rhs(a + 0.5 * dt * k1a, b + 0.5 * dt * k1b)
    k3a, k3b = rhs(a + 0.5 * dt * k2a, b + 0.5 * dt * k2b)
    k4a, k4b = rhs(a + dt * k3a, b + dt * k3b)
    return (a + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
            b + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b))


def step_support(s: SupportState, dt: float) -> SupportState:
    """One classical 4th-order step of S' = V, V' = support_rhs (dt not policed)."""
    if not dt > 0.0:
        raise InvalidConfig(f"dt must be positive, got {dt}")
    S_new, V_new = rk4(_stage, (s.S, s.V), dt, _stage_rhs(s.V, *s.derivatives))
    return SupportState(grid=s.grid, S=S_new, V=V_new, t=s.t + dt, center=s.center)


def validate_support_state(state: SupportState, eps: float, L0: float) -> _Violation | None:
    """First degeneracy of a candidate state, or None if admissible.

    LengthVanished is tested first (in a collapse it is crossed while the
    state is still convex); a sign loss of S''+S is ConvexityLost; a still
    positive S''+S at or below eps means k >= 1/eps, CurvatureBlowup.
    """
    if length_from_support(state) <= LENGTH_VANISH_REL * L0:
        return _Violation("LengthVanished")
    rho = state.derivatives[0]
    m = float(np.min(rho))
    if m <= eps:
        j = int(np.argmin(rho))
        theta_j = float(state.grid.theta[j])
        kind = "ConvexityLost" if m <= 0.0 else "CurvatureBlowup"
        return _Violation(kind, theta=theta_j)
    return None


def bisect_to_violation(state, dt, first_bad: _Violation, attempt,
                        tol: float = _BISECT_TOL):
    """Shrink a violating step to the admissibility boundary.

    attempt(state, h) -> (candidate | None, violation | None).  Returns the
    last valid sub-stepped state (None if even tiny steps fail), the boundary
    violation, and its time.
    """
    lo, hi = 0.0, dt
    good = None
    bad = first_bad
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        cand, v = attempt(state, mid)
        if v is None:
            lo = mid
            good = cand
        else:
            hi = mid
            bad = v
    return good, bad, state.t + 0.5 * (lo + hi)


def integrate(state, cfg: FlowConfig, bound, step, validate, after_accept=None):
    """Step state to cfg.t_end; the step loop of both curve solvers.

    bound(state) is the CFL bound before safety; validate(step(state, dt))
    gives a candidate's first violation or None, and a step raising
    ConvexityLost, NotConvex or DegenerateEdge is a ConvexityLost violation,
    which is bisected to the admissibility boundary and ends the run.
    after_accept(state, steps) may replace an accepted state before the
    record_every cadence sees it; validate checks the replacement, and its
    violation ends the run at the accepted state.  Returns (snapshots,
    termination, final_state, cfl_margin = min over steps of (allowed dt -
    taken dt)).
    """
    def attempt(st, h):
        try:
            cand = step(st, h)
        except (ConvexityLost, NotConvex, DegenerateEdge):
            return None, _Violation("ConvexityLost")
        return cand, validate(cand)

    snapshots = [state]
    cfl_margin = math.inf
    steps = 0
    while state.t < cfg.t_end - 1e-12:
        if steps >= _MAX_STEPS:
            raise InvalidConfig("step budget exhausted before t_end")

        b = bound(state)
        dt = cfg.next_dt(b, state.t)
        cfl_margin = min(cfl_margin, cfg.safety * b - dt)

        trial, violation = attempt(state, dt)
        if violation is not None:
            good, boundary, t_bad = bisect_to_violation(state, dt, violation, attempt)
            if good is not None:
                state = good
            termination = Termination(boundary.kind, t=t_bad, theta=boundary.theta)
            break

        # The superseded state lives on only as a snapshot; clear its cached
        # support pair or polygon geometry (a frozen dataclass cannot del it).
        vars(state).pop("derivatives", None)
        state = trial
        steps += 1
        replaced = state if after_accept is None else after_accept(state, steps)
        if replaced is not state:
            violation = validate(replaced)
            if violation is not None:
                termination = Termination(violation.kind, t=state.t, theta=violation.theta)
                break
            state = replaced
        if steps % cfg.record_every == 0:
            snapshots.append(state)
    else:
        termination = Termination("HorizonReached", t=state.t)

    if snapshots[-1].t < state.t - 1e-15:
        snapshots.append(state)
    return snapshots, termination, state, cfl_margin


# Every stage input and candidate passes a finiteness check that raises
# NonFinite, so numpy's overflow warnings carry no news during a run.
@np.errstate(all="ignore")
def run_support_flow(S0: np.ndarray, V0: np.ndarray, cfg: FlowConfig) -> FlowTrajectory:
    """Integrate the support-PDE IVP S(theta,0) = S0, S_t(theta,0) = V0.

    Records a snapshot every record_every accepted steps plus the final
    state.  Termination is HorizonReached at t_end, or the first of
    ConvexityLost / CurvatureBlowup / LengthVanished with the violation time
    located by step bisection so the recorded horizon is sharp.  Arithmetic
    that overflows raises NonFinite.
    """
    S0 = np.asarray(S0, dtype=float)
    V0 = np.asarray(V0, dtype=float)
    grid = AngleGrid(S0.size)
    if grid.N != cfg.N:
        raise InvalidConfig(f"config N = {cfg.N} but data has {grid.N} samples")
    state = SupportState(grid=grid, S=S0, V=V0, t=0.0)
    L0 = length_from_support(state)
    eps = cfg.convexity_floor(L0)
    if validate_support_state(state, eps, L0) is not None:
        raise ConvexityLost("initial data is not strictly convex", t=0.0)

    # Every state cfl_bound sees has passed validate, so S''+S > eps there.
    snapshots, termination, state, cfl_margin = integrate(
        state, cfg, cfl_bound, step_support,
        lambda cand: validate_support_state(cand, eps, L0))

    final_margin = float(np.min(state.derivatives[0]) - eps)
    monitor = MonitorReport(records=(
        margin_record("run-convexity-floor", final_margin, tolerance=0.0,
                      note="final S''+S margin above the configured floor"),
        margin_record("run-cfl-compliance",
                      float(cfl_margin) if math.isfinite(cfl_margin) else 0.0,
                      tolerance=1e-15,
                      note="min over steps of (allowed dt - taken dt)"),
    ))
    return FlowTrajectory(snapshots=tuple(snapshots), termination=termination,
                          monitor=monitor)


def sigma_field(traj: FlowTrajectory, t: float, grid: AngleGrid | None = None) -> np.ndarray:
    """Normal-speed samples sigma~(theta, t) at a recorded time.

    Support trajectories return the stored V.  Lagrangian trajectories
    resample per-vertex sigma to the target grid through each vertex's
    outward-normal angle (periodic cubic interpolation).
    """
    snap = traj.snapshot_at(t)
    if isinstance(snap, SupportState):
        if grid is not None and grid.N != snap.grid.N:
            raise InvalidConfig("grid mismatch against the recorded state")
        return np.array(snap.V)
    if grid is None:
        raise InvalidConfig("a target AngleGrid is required for Lagrangian trajectories")
    th = normal_angles(snap.P)
    th0 = th - th[0]                       # increasing, covers [0, 2*pi)
    return periodic_spline(np.concatenate([th0, [TWO_PI]]), snap.sigma,
                           np.mod(grid.theta - th[0], TWO_PI))
