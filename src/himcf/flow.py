"""Support-function evolution of convex plane curves.

The flow in normal-angle gauge is the quasilinear wave equation

    S_tt = (S_theta_t)^2 / (S_thth + S) + (S_thth + S)
         = k (S_theta_t)^2 + 1/k,          k = 1/(S_thth + S),

integrated as the first-order system S' = V, V' = rhs with classical RK4 and
spectral theta-derivatives.  One kernel body, grids.support_pair, gives the
pair [S_thth + S, V_theta] of any (..., 2, N) stack of rows [S, V] from one
FFT round trip.  A run holds its live members as one (B, 2, 2, N) array,
member b = [[S, V], [S_thth + S, V_theta]]: members on one fixed-dt schedule
step together (run_support_flows; run_support_flow is B = 1), each ending on
its own and equal to its solo run bit for bit.  It makes its work arrays,
their row views and the kernel's constants once per live batch size (_Stage).
A step returns the candidates with their pairs, which validate them and give
an accepted member's CFL bound and first stage: an accepted step costs four
stacked transforms and builds no state.

The principal part has characteristic speeds |k S_theta_t| +- 1, giving the
CFL bound

    dt <= safety * dtheta / (max |k V_theta| + 1),

safety = SUPPORT_CFL_SAFETY = 0.6 for adaptive support steps and
DEFAULT_CFL_SAFETY = 0.5 for adaptive Lagrangian ones.  A fixed dt is policed
with FIXED_DT_CFL_LIMIT = 0.9: with the spectral mode count N/2 that limit
lands on the imaginary-axis stability limit of classical RK4 (0.9*pi ~ 2.83).
Below it the safety is an accuracy choice: the RK4 step defect grows as
safety^4.

A run's convexity floor eps comes from FlowConfig.convexity_floor alone: a
candidate with min S''+S <= eps, or a polygon with k >= 1/eps, ends the run.
A violating step is bisected to the boundary on a re-anchored bracket (each
valid midpoint starts the rest), so the sub-steps shrink with the bracket
and so does a stage's undershoot of the state it steps; a whole step that
only its stages failed is retaken from its last valid sub-step.  In a point
collapse the window in which L <= LENGTH_VANISH_REL * L0 while S''+S > 0 is
narrower than _BISECT_TOL, so a support bracket whose bad end is a sign loss
ends LengthVanished when the good end's length, advanced at its exact rate
L' = int V dtheta over the final bracket width, reaches that threshold
(length_vanishes): the kind no longer depends on dt.

Both curve solvers (this one and lagrangian.py) step through integrate (step
rule, bisection, recording) and rk4; only their discretizations differ.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .curves import PolygonGeometry, discrete_curvature
from .errors import (CflViolation, ConvexityLost, DegenerateEdge, InvalidConfig, NonFinite,
                     NotConvex)
from .grids import TWO_PI, AngleGrid, kernel_plan, support_derivatives, support_pair
from .report import CheckRecord, margin_record
from .support import (PlaneCurve, SupportState, default_eps_convex, support_lengths,
                      support_to_curve, unpack_curve)

LENGTH_VANISH_REL = 1e-6          # LengthVanished at L <= this * L(0)
DEFAULT_CFL_SAFETY = 0.5          # adaptive Lagrangian steps (FlowConfig.safety)
SUPPORT_CFL_SAFETY = 0.6          # adaptive support steps
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
    adaptive CFL stepping.
    eps_convex is the one settable convexity floor; see convexity_floor.
    """

    N: int = 128
    dt: float | None = None
    t_end: float = 1.0
    eps_convex: float | None = None     # None: default_eps_convex(L0) at run start
    record_every: int = 1

    def __post_init__(self):
        if self.eps_convex is not None and not 0.0 < self.eps_convex < math.inf:
            raise InvalidConfig(
                f"eps_convex must be positive and finite, got {self.eps_convex}")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise InvalidConfig(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.t_end < math.inf:
            raise InvalidConfig(f"t_end must be positive and finite, got {self.t_end}")
        if self.record_every < 1:
            raise InvalidConfig("record_every must be >= 1")
        if self.dt is not None:
            fixed_step_count(self.dt, self.t_end)

    def convexity_floor(self, L0: float) -> float:
        """The run's floor: a state ends it once min S''+S <= floor (k >= 1/floor)."""
        return default_eps_convex(L0) if self.eps_convex is None else self.eps_convex

    @cached_property
    def adaptive(self) -> bool:
        return self.dt is None

    @cached_property
    def safety(self) -> float:
        return DEFAULT_CFL_SAFETY if self.adaptive else FIXED_DT_CFL_LIMIT

    def next_dt(self, bound: float, t: float, safety: float | None = None) -> float:
        """Step size at time t given the state's CFL bound (before safety).

        safety defaults to self.safety.  Adaptive runs take safety * bound;
        a fixed dt that exceeds it raises CflViolation, and so does a step
        below the resolution of t or (short of landing) of t_end, which
        could only stall.  The last step is cut
        to land on t_end.  A non-finite bound (overflowed geometry) is NonFinite.
        """
        if not math.isfinite(bound):
            raise NonFinite(f"non-finite CFL bound {bound} at t = {t:.6e}")
        safety = self.safety if safety is None else safety
        if self.adaptive:
            dt = min(safety * bound, self.t_end - t)
        else:
            dt = min(self.dt, self.t_end - t)
            if dt > safety * bound * (1.0 + 1e-12):
                raise CflViolation(
                    f"fixed dt = {self.dt:.3e} exceeds CFL bound "
                    f"{safety * bound:.3e} at t = {t:.6f}")
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
    monitor: tuple[CheckRecord, ...]

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

    # Fields of snapshot k, read off its data row.

    def curvature(self, k: int) -> np.ndarray:
        """Curvature per point: 1/(S''+S), or the polygon's discrete curvature."""
        if self.is_support:
            return 1.0 / support_derivatives(self.data[k])[0]
        return discrete_curvature(unpack_curve(self.data[k])[0])

    def length(self, k: int) -> float:
        """Curve length: the quadrature of S, or the polygon's perimeter."""
        if self.is_support:
            return float(support_lengths(self.data[k, 0]))
        return PolygonGeometry(unpack_curve(self.data[k])[0]).length

    def speeds(self, k: int) -> np.ndarray:
        """V, or the vertices' normal speeds sigma."""
        return self.data[k, 1] if self.is_support else unpack_curve(self.data[k])[1]

    def polygon(self, k: int) -> np.ndarray:
        """Boundary vertices (M, 2): the support state's reconstruction, or P itself."""
        if self.is_support:
            return support_to_curve(self.snapshot(k)).P
        return unpack_curve(self.data[k])[0]


def cfl_bound(member) -> float:
    """Largest stable dt (before safety) of a member [[S, V], [S''+S, V_theta]], S''+S > 0."""
    rho, V_th = member[1]
    q = np.divide(1.0, rho)
    speed = float(np.maximum.reduce(np.abs(np.multiply(q, V_th, out=q), out=q))) + 1.0
    return TWO_PI / rho.size / speed


def rk4(rhs, y: np.ndarray, dt: float, k1: np.ndarray, out=None, u=None) -> np.ndarray:
    """Classical RK4 step of the array y, y' = rhs(y); k1 = rhs(y) is given.

    Stage inputs y + (0.5*dt)*k, and 2 k3 once its stage input is spent, are
    formed in u and y + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4) in out (new
    arrays if not given); rhs may reuse one buffer but must not keep u.
    """
    out = np.empty(y.shape, y.dtype) if out is None else out
    u = np.empty(y.shape, y.dtype) if u is None else u
    k = rhs(np.add(y, np.multiply(0.5 * dt, k1, out=u), out=u))
    np.add(k1, np.multiply(2.0, k, out=out), out=out)
    k = rhs(np.add(y, np.multiply(0.5 * dt, k, out=u), out=u))
    np.add(out, np.multiply(2.0, k, out=u), out=out)
    np.add(out, rhs(np.add(y, np.multiply(dt, k, out=u), out=u)), out=out)
    return np.add(y, np.multiply(dt / 6.0, out, out=out), out=out)


class _Stage:
    """The RK4 stage of b members at N points; work arrays, row views and kernel plan made once.

    rhs(u), u the buffer where rk4 forms stage inputs, sets d to u's pair by one
    support_pair call; stage 1 passes an accepted member's pair and runs no transform.
    """

    def __init__(self, b: int, N: int):
        self.u, k1, k, self.d = np.empty((4, b, 2, N))
        self.plan = (np.empty((b, 2, N), bool), np.empty((b, 2, N // 2 + 1), complex),
                     *kernel_plan(N))
        self.S, self.rho = self.u[:, 0], self.d[:, 0]
        self.rows = (self.u[:, 1], self.rho, self.d[:, 1], k, k[:, 0], k[:, 1])
        self.k1_rows = (k1, k1[:, 0], k1[:, 1])

    def rhs(self, y: np.ndarray, pair: np.ndarray | None = None) -> np.ndarray:
        """[V, V_theta^2/rho + rho] of a (b, 2, N) stage input y = [S, V] (u without pair)."""
        if pair is None:
            support_pair(y, self.S, self.d, self.rho, *self.plan)
            V, rho, V_th, k, k_S, a = self.rows
        else:
            V, rho, V_th = y[:, 1], pair[:, 0], pair[:, 1]
            k, k_S, a = self.k1_rows
        # Stages only guard against sign loss; the eps ceiling is enforced on
        # completed candidate states, where the violation can be classified.
        m = np.minimum.reduce(rho, axis=None)
        if m <= 0.0:
            raise ConvexityLost(f"S''+S = {m:.3e} <= 0")
        k_S[...] = V
        np.add(np.divide(np.square(V_th, out=a), rho, out=a), rho, out=a)
        return k


class _Stages(dict):
    """A support run's _Stage per live stack shape (b, 2, 2, N), each made at its first step."""

    def __missing__(self, shape):
        self[shape] = stage = _Stage(shape[0], shape[-1])
        return stage


def step_supports(members, dt: float, work: _Stages) -> np.ndarray:
    """One RK4 step of S' = V, V' = V_theta^2/rho + rho for live members at one t.

    members is a (B, 2, 2, N) stack or sequence of [[S, V], [S''+S, V_theta]];
    returns the candidates, with their pairs, as a new stack.  Each stage is one
    kernel call in work, the run's _Stages.  dt is not policed.
    """
    if not dt > 0.0:
        raise InvalidConfig(f"dt must be positive, got {dt}")
    members = np.asarray(members, dtype=float)
    stage = work[members.shape]
    y, cand = members[:, 0], np.empty(members.shape)
    rk4(stage.rhs, y, dt, stage.rhs(y, members[:, 1]), out=cand[:, 0], u=stage.u)
    support_pair(cand[:, 0], cand[:, 0, 0], cand[:, 1], cand[:, 1, 0], *stage.plan)
    return cand


def step_support(s: SupportState, dt: float) -> SupportState:
    """One classical 4th-order step of a single state (step_supports of one).

    No run calls it; it stays as a hook point that perfbench/tracing.py
    wraps by name (tests/test_benchmark_hooks.py).
    """
    S, V = step_supports([[s.sv, support_derivatives(s.sv)]], dt, _Stages())[0, 0]
    return SupportState(grid=s.grid, S=S, V=V, t=s.t + dt)


def validate_support_state(member: np.ndarray, eps: float, L0: float) -> _Violation | None:
    """First degeneracy of a candidate member [[S, V], [S''+S, V_theta]], or None.

    LengthVanished is tested first (in a collapse it is crossed while the
    state is still convex); a sign loss of S''+S is ConvexityLost; a still
    positive S''+S at or below eps means k >= 1/eps, CurvatureBlowup.
    """
    if support_lengths(member[0, 0]) <= LENGTH_VANISH_REL * L0:
        return _Violation("LengthVanished")
    rho = member[1, 0]
    m = np.minimum.reduce(rho)
    if m <= eps:
        theta_j = float(AngleGrid(rho.size).theta[np.argmin(rho)])
        return _Violation("ConvexityLost" if m <= 0.0 else "CurvatureBlowup", theta=theta_j)
    return None


def length_vanishes(member: np.ndarray, width: float, L0: float) -> bool:
    """Whether a member's length, advanced for width at its exact rate L' = int V dtheta, is vanished.

    That is L + width * L' <= LENGTH_VANISH_REL * L0, the LengthVanished test
    of validate_support_state a width ahead.
    """
    S, V = member[0]
    return support_lengths(S) + width * support_lengths(V) <= LENGTH_VANISH_REL * L0


def bisect_to_violation(member, dt, first_bad: _Violation, attempt, vanishes=None):
    """Shrink a violating step of one member to its admissibility boundary.

    attempt(batch, h) -> ([candidate | None], [violation | None]) steps a batch
    by h.  The bracket re-anchors: each valid midpoint starts the sub-steps of
    the rest, so they shrink with the bracket, and so does a stage's
    undershoot of the state it steps.  A sign loss (ConvexityLost) at the bad
    end is LengthVanished if vanishes(good end, final bracket width) holds.
    If every sub-step was valid, the step's end is retaken from the good end,
    so a violation that only a whole step's stages met ends nothing.  Returns
    the last valid member (member itself if even tiny steps fail) and its
    step, the boundary violation (None if the retaken end is valid: the
    member and its step are then the step's valid end), and the step to the
    final bracket's midpoint.
    """
    lo, hi = 0.0, dt
    good = member
    bad = first_bad
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        (cand,), (v,) = attempt([good], mid - lo)
        if v is None:
            lo, good = mid, cand
        else:
            hi, bad = mid, v
    if hi == dt and lo > 0.0:
        # Every sub-step was valid: retake the step's end from the good end.
        (cand,), (bad,) = attempt([good], dt - lo)
        if bad is None:
            return cand, dt, None, dt
    if bad.kind == "ConvexityLost" and vanishes is not None and vanishes(good, hi - lo):
        bad = _Violation("LengthVanished")
    return good, lo, bad, 0.5 * (lo + hi)


def integrate(members, t: float, cfg: FlowConfig, bound, step, validators, row,
              after_accept=None, adaptive_safety=DEFAULT_CFL_SAFETY, vanishes=None):
    """Step members at time t to cfg.t_end on one schedule; the loop of both curve solvers.

    step(members, h) returns the candidates as a sequence of the kind it takes
    (the support solver's one array; a list where after_accept may replace
    one).  bound(member) is a member's CFL bound before safety (a fixed dt, the
    only kind that may serve B > 1, is checked against each, lowest index
    first); validators[i](candidate) is member i's first violation or None.  A
    step raising ConvexityLost, NotConvex or DegenerateEdge is a ConvexityLost
    violation (a batch is then retried member by member).  A violating member
    is bisected alone to its admissibility boundary and ends there, unless
    the step's retaken end is valid (bisect_to_violation), which it then
    takes as its candidate; vanishes[i](member, width), if given, is member
    i's length rule for a sign loss at the boundary.  Adaptive steps take adaptive_safety
    times the bound, fixed ones are policed at FIXED_DT_CFL_LIMIT.
    after_accept(member, steps) may replace an accepted member before the
    record_every cadence; a violation of the replacement ends the member at
    the accepted one.  row(member) is the new float row a kept member is
    recorded as.  Returns per member (times, data, termination, final member,
    cfl_margin = min over steps of (allowed dt - taken dt)).
    """
    if len(members) > 1 and cfg.adaptive:
        raise InvalidConfig("members share one step schedule only with a fixed dt")

    def attempt(batch, h, index):
        # The candidates of members index (batch) after a step h, and their violations.
        try:
            cands = step(batch, h)
        except (ConvexityLost, NotConvex, DegenerateEdge):
            if len(batch) == 1:
                return [None], [_Violation("ConvexityLost")]
            solo = [attempt(batch[j:j + 1], h, index[j:j + 1]) for j in range(len(batch))]
            return [c for (c,), _ in solo], [v for _, (v,) in solo]
        return cands, [validators[i](c) for i, c in zip(index, cands)]

    kept = [[(t, row(m))] for m in members]
    ends = [None] * len(members)        # (termination, final member, its t) once ended
    cfl_margins = [math.inf] * len(members)
    live = list(range(len(members)))
    safety = adaptive_safety if cfg.adaptive else FIXED_DT_CFL_LIMIT
    steps = 0
    while live and t < cfg.t_end - 1e-12:
        if steps >= _MAX_STEPS:
            raise InvalidConfig("step budget exhausted before t_end")

        for i, m in zip(live, members):
            b = bound(m)
            dt = cfg.next_dt(b, t, safety)
            margin = safety * b - dt
            if margin < cfl_margins[i]:
                cfl_margins[i] = margin

        steps += 1
        cands, violations = attempt(members, dt, live)
        dropped = False
        for j, (i, cand, violation) in enumerate(zip(live, cands, violations)):
            if violation is not None:
                good, lo, bad, h_bad = bisect_to_violation(
                    members[j], dt, violation, lambda batch, h, i=i: attempt(batch, h, (i,)),
                    None if vanishes is None else vanishes[i])
                if bad is not None:
                    ends[i] = (Termination(bad.kind, t=t + h_bad, theta=bad.theta), good, t + lo)
                    dropped = True
                    continue
                cands[j] = cand = good
            if after_accept is not None:
                replaced = after_accept(cand, steps)
                if replaced is not cand:
                    violation = validators[i](replaced)
                    if violation is not None:
                        ends[i] = (Termination(violation.kind, t=t + dt, theta=violation.theta),
                                   cand, t + dt)
                        dropped = True
                        continue
                    cands[j] = cand = replaced
            if steps % cfg.record_every == 0:
                kept[i].append((t + dt, row(cand)))
        t += dt
        members = cands
        if dropped:
            members = [m for m, i in zip(members, live) if ends[i] is None]
            live = [i for i in live if ends[i] is None]

    for i, m in zip(live, members):
        ends[i] = (Termination("HorizonReached", t=t), m, t)
    runs = []
    for rec, (end, m, t_m), margin in zip(kept, ends, cfl_margins):
        if rec[-1][0] < t_m - 1e-15:
            rec.append((t_m, row(m)))
        times, rows = zip(*rec)
        runs.append((np.array(times), np.stack(rows), end, m, margin))
    return runs


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
    y = np.array([[S0, V0] for S0, V0 in zip(S0s, V0s, strict=True)], dtype=float)
    if y.ndim != 3:
        raise ValueError("S and V must be 1-d arrays of one size")
    if AngleGrid(y.shape[-1]).N != cfg.N:
        raise InvalidConfig(f"config N = {cfg.N} but data has {y.shape[-1]} samples")
    members = np.stack([y, support_derivatives(y)], axis=1)
    L0s = support_lengths(y[:, 0]).tolist()
    floors = [cfg.convexity_floor(L0) for L0 in L0s]
    if any(validate_support_state(m, eps, L0) is not None
           for m, eps, L0 in zip(members, floors, L0s)):
        raise ConvexityLost("initial data is not strictly convex", t=0.0)

    # Every member cfl_bound sees has passed validation, so S''+S > eps there.
    runs = integrate(members, 0.0, cfg, cfl_bound,
                     partial(step_supports, work=_Stages()),
                     [partial(validate_support_state, eps=eps, L0=L0)
                      for eps, L0 in zip(floors, L0s)], lambda m: m[0].copy(),
                     adaptive_safety=SUPPORT_CFL_SAFETY,
                     vanishes=[partial(length_vanishes, L0=L0) for L0 in L0s])
    trajectories = []
    for (times, data, termination, member, cfl_margin), eps in zip(runs, floors):
        monitor = (
            margin_record("run-convexity-floor", float(np.min(member[1, 0]) - eps),
                          tolerance=0.0, note="final S''+S margin above the configured floor"),
            margin_record("run-cfl-compliance",
                          float(cfl_margin) if math.isfinite(cfl_margin) else 0.0,
                          tolerance=1e-15, note="min over steps of (allowed dt - taken dt)"),
        )
        trajectories.append(FlowTrajectory(times, data, termination, monitor))
    return tuple(trajectories)
