"""Support-function evolution of convex plane curves.

The flow in normal-angle gauge is the quasilinear wave equation

    S_tt = (S_theta_t)^2 / (S_thth + S) + (S_thth + S)
         = k (S_theta_t)^2 + 1/k,          k = 1/(S_thth + S),

integrated as the first-order system S' = V, V' = rhs with classical RK4 and
spectral theta-derivatives.  A state is one (2, N) array [S, V], and a run
has a leading batch axis: members on one fixed-dt schedule step as a
(B, 2, N) stack (run_support_flows; run_support_flow is B = 1), each ending
on its own and equal to its solo run bit for bit.  One kernel,
grids.support_derivatives, gives [S_thth + S, V_theta] of any such stack
from one FFT round trip, so a stage costs one transform whatever B is.  A
state caches its pair in SupportState.derivatives: validating an accepted
step computes it, and the next step reuses it for the CFL bound and as its
first stage, so an accepted step costs four stacked transforms.  A
trajectory keeps each recorded state's row alone, so its pair dies with it.

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
from functools import partial
from operator import attrgetter

import numpy as np

from .errors import CflViolation, ConvexityLost, DegenerateEdge, InvalidConfig, NotConvex
from .grids import AngleGrid, support_derivatives
from .report import MonitorReport, margin_record
from .support import (PlaneCurve, SupportState, default_eps_convex, length_from_support,
                      unpack_curve)

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
    """A run's snapshot times (K,) and data rows, two read-only arrays.

    data is (K, 2, N), rows [S, V], for a support run and (K, 3M), rows
    [P.ravel(), sigma], for a Lagrangian run.
    """

    times: np.ndarray
    data: np.ndarray
    termination: Termination
    monitor: MonitorReport

    def __post_init__(self):
        self.times.setflags(write=False)
        self.data.setflags(write=False)
        if len(self.times) != len(self.data) or np.any(np.diff(self.times) <= 0.0):
            raise InvalidConfig("snapshot times must be strictly increasing, one per row")

    @property
    def is_support(self) -> bool:
        return self.data.ndim == 3

    def snapshot(self, k: int):
        """Snapshot k as a new SupportState or PlaneCurve."""
        t = float(self.times[k])
        if self.is_support:
            S, V = self.data[k]
            return SupportState(grid=AngleGrid(S.size), S=S, V=V, t=t)
        P, sigma = unpack_curve(self.data[k])
        return PlaneCurve(P=P, sigma=sigma, t=t)

    @property
    def snapshots(self) -> tuple:
        """Every snapshot(k), built anew on each access, for callers that want objects."""
        return tuple(map(self.snapshot, range(len(self.times))))


def cfl_bound(s: SupportState) -> float:
    """Largest stable dt (before safety factor) at a state with S''+S > 0."""
    rho, V_th = s.derivatives
    k = 1.0 / rho
    speed = float(np.abs(k * V_th).max()) + 1.0
    return s.grid.dtheta / speed


def _stage_rhs(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[V, V_theta^2/rho + rho] of (..., 2, N) stacks y = [S, V], d = [rho, V_theta]."""
    # Stages only guard against sign loss; the eps ceiling is enforced on
    # completed candidate states, where the violation can be classified.
    rho = d[..., 0, :]
    if rho.min() <= 0.0:
        raise ConvexityLost(f"S''+S = {rho.min():.3e} <= 0")
    out = np.empty_like(y)
    out[..., 0, :] = y[..., 1, :]
    out[..., 1, :] = d[..., 1, :]**2 / rho + rho
    return out


def _stage(y: np.ndarray) -> np.ndarray:
    return _stage_rhs(y, support_derivatives(y))


def rk4(rhs, y: np.ndarray, dt: float, k1: np.ndarray) -> np.ndarray:
    """Classical RK4 step of the array y, y' = rhs(y); k1 = rhs(y) is given."""
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _keep_pairs(states, sv: np.ndarray):
    """Give each state its row of one kernel call on sv, the stack of their rows."""
    d = support_derivatives(sv)
    d.setflags(write=False)
    for state, pair in zip(states, d):
        vars(state)["derivatives"] = pair
    return states


def step_supports(states, dt: float) -> tuple[SupportState, ...]:
    """One RK4 step of S' = V, V' = V_theta^2/rho + rho for members at one t.

    dt is not policed.  Each stage, and the candidates' own pair (kept for
    their validation), is one kernel call on the members' (B, 2, N) stack.
    """
    if not dt > 0.0:
        raise InvalidConfig(f"dt must be positive, got {dt}")
    y = np.array([s.sv for s in states])
    sv = rk4(_stage, y, dt, _stage_rhs(y, np.array([s.derivatives for s in states])))
    return _keep_pairs(tuple(SupportState(grid=s.grid, S=r[0], V=r[1], t=s.t + dt,
                                          center=s.center) for s, r in zip(states, sv)), sv)


def step_support(s: SupportState, dt: float) -> SupportState:
    """One classical 4th-order step of a single state (step_supports of one).

    No run calls it; it stays as a hook point that perfbench/tracing.py
    wraps by name (tests/test_benchmark_hooks.py).
    """
    return step_supports((s,), dt)[0]


def validate_support_state(state: SupportState, eps: float, L0: float) -> _Violation | None:
    """First degeneracy of a candidate state, or None if admissible.

    LengthVanished is tested first (in a collapse it is crossed while the
    state is still convex); a sign loss of S''+S is ConvexityLost; a still
    positive S''+S at or below eps means k >= 1/eps, CurvatureBlowup.
    """
    if length_from_support(state) <= LENGTH_VANISH_REL * L0:
        return _Violation("LengthVanished")
    rho = state.derivatives[0]
    m = float(rho.min())
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


def integrate(states, cfg: FlowConfig, bound, step, validators, row, after_accept=None):
    """Step members at one t to cfg.t_end on one schedule; the loop of both curve solvers.

    bound(state) is a member's CFL bound before safety (a fixed dt, the only
    kind that may serve B > 1, is checked against each, lowest index first);
    step(members, h) returns their candidates; validators[i](candidate) is
    member i's first violation or None.  A step raising ConvexityLost,
    NotConvex or DegenerateEdge is a ConvexityLost violation (a batch is then
    retried member by member).  A violating member is bisected alone to its
    admissibility boundary and ends there; the others go on.  after_accept(
    state, steps) may replace an accepted state before the record_every
    cadence; a violation of the replacement ends the member at the accepted
    state.  row(state) is the float row a kept state is recorded as.  Returns
    per member (times, data, termination, final_state, cfl_margin = min over
    steps of (allowed dt - taken dt)), data the stack of the kept rows.
    """
    if len(states) > 1 and cfg.adaptive:
        raise InvalidConfig("members share one step schedule only with a fixed dt")

    def attempt(members, h, index):
        try:
            cands = step(members, h)
        except (ConvexityLost, NotConvex, DegenerateEdge):
            if len(members) > 1:
                return [attempt((m,), h, (i,))[0] for m, i in zip(members, index)]
            return [(None, _Violation("ConvexityLost"))]
        return [(c, validators[i](c)) for c, i in zip(cands, index)]

    states = list(states)
    kept = [[(s.t, row(s))] for s in states]
    ends = [None] * len(states)
    cfl_margins = [math.inf] * len(states)
    live = list(range(len(states)))
    steps = 0
    while live and states[live[0]].t < cfg.t_end - 1e-12:
        if steps >= _MAX_STEPS:
            raise InvalidConfig("step budget exhausted before t_end")

        for i in live:
            b = bound(states[i])
            dt = cfg.next_dt(b, states[i].t)
            cfl_margins[i] = min(cfl_margins[i], cfg.safety * b - dt)

        steps += 1
        for i, (trial, violation) in zip(live[:], attempt([states[i] for i in live], dt, live)):
            if violation is not None:
                good, boundary, t_bad = bisect_to_violation(
                    states[i], dt, violation, lambda st, h, i=i: attempt((st,), h, (i,))[0])
                if good is not None:
                    states[i] = good
                ends[i] = Termination(boundary.kind, t=t_bad, theta=boundary.theta)
                live.remove(i)
                continue

            states[i] = trial
            replaced = trial if after_accept is None else after_accept(trial, steps)
            if replaced is not trial:
                violation = validators[i](replaced)
                if violation is not None:
                    ends[i] = Termination(violation.kind, t=trial.t, theta=violation.theta)
                    live.remove(i)
                    continue
                states[i] = replaced
            if steps % cfg.record_every == 0:
                kept[i].append((states[i].t, row(states[i])))

    for rec, state in zip(kept, states):
        if rec[-1][0] < state.t - 1e-15:
            rec.append((state.t, row(state)))
    ends = [end or Termination("HorizonReached", t=s.t) for end, s in zip(ends, states)]
    records = (zip(*rec) for rec in kept)      # (times, rows) of each member
    return [(np.array(times), np.stack(rows), end, state, margin)
            for (times, rows), end, state, margin in zip(records, ends, states, cfl_margins)]


def run_support_flow(S0: np.ndarray, V0: np.ndarray, cfg: FlowConfig) -> FlowTrajectory:
    """The support-PDE IVP S(theta,0) = S0, S_t(theta,0) = V0: run_support_flows of one."""
    return run_support_flows([S0], [V0], cfg)[0]


# Every stage input and candidate passes a finiteness check that raises
# NonFinite, so numpy's overflow warnings carry no news during a run.
@np.errstate(all="ignore")
def run_support_flows(S0s, V0s, cfg: FlowConfig) -> tuple[FlowTrajectory, ...]:
    """Integrate the IVPs S(theta,0) = S0s[b], S_t(theta,0) = V0s[b] as one batch.

    Each run records a snapshot every record_every accepted steps plus the
    final state; it ends HorizonReached at t_end, or at the first
    ConvexityLost / CurvatureBlowup / LengthVanished, located by step
    bisection.  Overflow raises NonFinite.  The members share cfg's schedule
    (B > 1 needs a fixed dt), and each equals its solo run bit for bit.
    """
    states = []
    for S0, V0 in zip(S0s, V0s, strict=True):
        grid = AngleGrid(np.size(S0))
        if grid.N != cfg.N:
            raise InvalidConfig(f"config N = {cfg.N} but data has {grid.N} samples")
        states.append(SupportState(grid=grid, S=S0, V=V0, t=0.0))
    _keep_pairs(states, np.array([s.sv for s in states]))
    L0s = [length_from_support(s) for s in states]
    floors = [cfg.convexity_floor(L0) for L0 in L0s]
    if any(validate_support_state(*args) is not None for args in zip(states, floors, L0s)):
        raise ConvexityLost("initial data is not strictly convex", t=0.0)

    # Every state cfl_bound sees has passed validate, so S''+S > eps there.
    runs = integrate(states, cfg, cfl_bound, step_supports,
                     [partial(validate_support_state, eps=eps, L0=L0)
                      for eps, L0 in zip(floors, L0s)], attrgetter("sv"))
    trajectories = []
    for (times, data, termination, state, cfl_margin), eps in zip(runs, floors):
        monitor = MonitorReport(records=(
            margin_record("run-convexity-floor", float(np.min(state.derivatives[0]) - eps),
                          tolerance=0.0, note="final S''+S margin above the configured floor"),
            margin_record("run-cfl-compliance",
                          float(cfl_margin) if math.isfinite(cfl_margin) else 0.0,
                          tolerance=1e-15, note="min over steps of (allowed dt - taken dt)"),
        ))
        trajectories.append(FlowTrajectory(times, data, termination, monitor))
    return tuple(trajectories)
