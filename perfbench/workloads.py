"""The benchmark's operations: one call sequence into himcf and its checks.

Every operation has run(), the timed part, which only calls himcf's public
functions or himcf.cli.main, and check(output), which compares what came back
with the independent computations in oracles.py and raises CheckFailed on a
mismatch.  Library functions are looked up on their modules at call time, so
the wrappers the traced run installs are the ones called.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import himcf.cli
import himcf.flow
import himcf.monitors

import inputs
from oracles import (
    CheckFailed,
    circle_collapse_time,
    circle_radius,
    cosine_series,
    curvature_radius,
    ellipse_support,
    grid,
    hermite_residual,
    regime,
    require,
    trig_interpolate,
)

# Comparison slack for times located by the solvers' step bisection
# (absolute resolution 1e-6) plus the length-vanishing threshold.
T_SLACK = 1e-5
# Collapse time of a circle against 1/2 ln((r1-r0)/(r1+r0)); at N = 64 the
# located time lies up to 1e-5 early.
COLLAPSE_TOL = 5e-5
# Relative error allowed against r(t) = ((r0+r1)/2)e^t + ((r0-r1)/2)e^-t.
CIRCLE_RTOL = 1e-6
# Relative defect allowed by oracles.hermite_residual (observed <= 1e-6).
HERMITE_RTOL = 1e-5
# Long-time runs of one curve at N and at the finest N must end within
# CROSS_N_C * max|S| / N^2 of each other (observed constant <= 0.45).
CROSS_N_C = 5.0
# Cross-solver support gap must stay under CROSS_C * max|S| / M^2
# (observed constant <= 0.33).
CROSS_C = 3.0
# Hausdorff distance of the README ellipse call (chord sagitta dominated).
ELLIPSE_HAUSDORFF_MAX = 5e-3


def _convex_everywhere(S_rows: np.ndarray, what: str) -> None:
    rho = curvature_radius(S_rows)
    worst = float(np.min(rho))
    require(worst > 0.0, f"{what}: S''+S = {worst:.3e} <= 0 on a snapshot")


def _stack(traj) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([s.t for s in traj.snapshots]),
            np.array([s.S for s in traj.snapshots]))


def _consistent_steps(traj, what: str) -> None:
    times, S = _stack(traj)
    V = np.array([s.V for s in traj.snapshots])
    defect = hermite_residual(times, S, V)
    require(defect <= HERMITE_RTOL,
            f"{what}: snapshots violate S_t = V, V_t = a by {defect:.3e} (relative)")


def _files_digest(directory: str) -> str:
    h = hashlib.sha256()
    for root, _, names in sorted(os.walk(directory)):
        for name in sorted(names):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = himcf.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _load_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Operation:
    """Base: a named unit of timed work plus its output check."""

    def __init__(self, name: str):
        self.name = name

    def run(self):
        raise NotImplementedError

    def check(self, output) -> None:
        raise NotImplementedError


class CliOperation(Operation):
    """CLI calls into a scratch directory; repeats must be byte-identical.

    The first completed call stores the digest of everything written; every
    later call of the same operation must reproduce it exactly.
    """

    def __init__(self, name: str, out_dir: str):
        super().__init__(name)
        self.out_dir = out_dir
        self.reference_digest = None

    def check(self, output) -> None:
        for code, _, err in output:
            require(code == 0, f"exit code {code}: {err.strip()}")
        self.check_files()
        digest = _files_digest(self.out_dir)
        if self.reference_digest is None:
            self.reference_digest = digest
        require(digest == self.reference_digest,
                "repeated CLI call wrote different bytes")

    def check_files(self) -> None:
        raise NotImplementedError


# ------------------------------------------------------- spectral-adaptive

def _check_support_run(traj, run: dict, case: dict, what: str) -> None:
    """Method properties and closed forms for one adaptive support run."""
    t_end = inputs.SPECTRAL_T_END
    times, S = _stack(traj)
    require(np.array_equal(S[0], run["S0"]), f"{what}: first snapshot is not the input")
    require(np.all(np.diff(times) > 0.0), f"{what}: snapshot times not increasing")
    _convex_everywhere(S, what)
    _consistent_steps(traj, what)
    term = traj.termination
    require(times[-1] <= term.t + 1e-12, f"{what}: snapshot recorded past termination")
    if term.kind == "HorizonReached":
        require(abs(term.t - t_end) <= 1e-12, f"{what}: horizon at {term.t} != {t_end}")

    fate, T_star = regime(run["S0"], run["V0"])
    if fate == "LongTime":
        require(term.kind == "HorizonReached",
                f"{what}: 1/zeta + f_min > 0 but run ended {term.kind} at {term.t:.6f}")
    elif fate == "FiniteTime":
        require(term.t <= T_star + T_SLACK,
                f"{what}: 1/delta + f_max < 0 but run lasted to {term.t:.6f} > T* = {T_star:.6f}")
        if T_star < t_end - T_SLACK:
            require(term.kind != "HorizonReached", f"{what}: shrinking run reached t_end")

    if case["kind"] == "circle":
        r0, r1 = case["r0"], case["r1"]
        exact = circle_radius(r0, r1, times)
        err = float(np.max(np.abs(S - exact[:, None])))
        require(err <= CIRCLE_RTOL * max(r0, float(np.max(exact))),
                f"{what}: circle deviates from the closed form by {err:.3e}")
        if r1 < -r0:
            T = circle_collapse_time(r0, r1)
            require(abs(term.t - T) <= COLLAPSE_TOL,
                    f"{what}: circle collapsed at {term.t:.8f}, closed form {T:.8f}")


class RefinementSweep(Operation):
    """One seeded curve through run_support_flow at every N in SPECTRAL_N.

    Adaptive CFL stepping, record_every = 1.  Besides the per-run checks,
    long-time curves must converge under refinement: the final state at each
    N matches the finest one, interpolated, to CROSS_N_C * max|S| / N^2.
    """

    def __init__(self, name: str, case: dict):
        super().__init__(name)
        self.case = case

    def run(self):
        out = []
        for r in self.case["runs"]:
            cfg = himcf.flow.FlowConfig(N=r["N"], t_end=inputs.SPECTRAL_T_END,
                                        record_every=1)
            out.append(himcf.flow.run_support_flow(r["S0"], r["V0"], cfg))
        return out

    def check(self, trajs) -> None:
        require(len(trajs) == len(self.case["runs"]), "missing runs in the sweep")
        for traj, r in zip(trajs, self.case["runs"]):
            _check_support_run(traj, r, self.case, f"{self.name} N={r['N']}")
        finest = self.case["runs"][-1]
        if regime(finest["S0"], finest["V0"])[0] != "LongTime":
            return
        S_fine = trajs[-1].snapshots[-1].S
        scale = float(np.max(np.abs(S_fine)))
        for traj in trajs[:-1]:
            S = traj.snapshots[-1].S
            gap = float(np.max(np.abs(S - trig_interpolate(S_fine, grid(S.size)))))
            require(gap <= CROSS_N_C * scale / S.size**2,
                    f"{self.name}: N={S.size} and N={S_fine.size} final states "
                    f"differ by {gap:.3e}")


def spectral_adaptive(seed: int, out_root: str) -> list[Operation]:
    return [RefinementSweep(f"spectral-adaptive[{i}] {case['regime']}", case)
            for i, case in enumerate(inputs.spectral_adaptive(seed))]


# ---------------------------------------------------- containment-fixed-dt

def _containment_config():
    return himcf.flow.FlowConfig(N=inputs.CONTAIN_N, dt=inputs.CONTAIN_DT,
                                 t_end=inputs.CONTAIN_T_END,
                                 record_every=inputs.CONTAIN_RECORD_EVERY)


class ContainmentPair(Operation):
    """Outer and inner run on one fixed-dt schedule, then check_containment."""

    def __init__(self, name: str, pair: dict):
        super().__init__(name)
        self.pair = pair

    def run(self):
        p = self.pair
        cfg = _containment_config()
        outer = himcf.flow.run_support_flow(p["S_out"], p["V_out"], cfg)
        inner = himcf.flow.run_support_flow(p["S_in"], p["V_in"], cfg)
        return outer, inner, himcf.monitors.check_containment(outer, inner)

    def check(self, output) -> None:
        outer, inner, record = output
        step = inputs.CONTAIN_DT * inputs.CONTAIN_RECORD_EVERY
        scale = 0.0
        for traj, S0, V0 in ((outer, self.pair["S_out"], self.pair["V_out"]),
                             (inner, self.pair["S_in"], self.pair["V_in"])):
            times, S = _stack(traj)
            require(regime(S0, V0)[0] == "LongTime", "pair input left the long-time regime")
            require(traj.termination.kind == "HorizonReached",
                    f"long-time run ended {traj.termination.kind} at {traj.termination.t:.6f}")
            require(np.allclose(times, step * np.arange(times.size), rtol=0.0, atol=1e-9),
                    "snapshots are off the fixed recording schedule")
            _convex_everywhere(S, self.name)
            _consistent_steps(traj, self.name)
            scale = max(scale, float(np.max(np.abs(S))))
        _, S_out = _stack(outer)
        _, S_in = _stack(inner)
        require(S_out.shape == S_in.shape, "pair schedules differ in length")
        margin = float(np.min(S_out - S_in))
        require(margin >= -1e-6 * scale, f"containment broken: min(S_out - S_in) = {margin:.3e}")
        require(record.passed, f"check_containment failed: {record.worst:.3e}")
        require(abs(record.worst - margin) <= 1e-12 * scale,
                f"check_containment margin {record.worst:.6e} != {margin:.6e}")


class ContainmentScenario(CliOperation):
    """`himcf containment --scenario NAME` in process."""

    def __init__(self, name: str, scenario: str, out_dir: str):
        super().__init__(name, out_dir)
        self.scenario = scenario

    def run(self):
        return [_cli(["containment", "--scenario", self.scenario,
                      "--out-dir", self.out_dir])]

    def check_files(self) -> None:
        summary = _load_json(os.path.join(self.out_dir, "containment_summary.json"))
        require(summary["passed"] is True, "containment summary did not pass")
        rows = _load_csv(os.path.join(self.out_dir, "containment.csv"))
        t, gap = rows[:, 0], rows[:, 1]
        require(t.size >= 2, "containment CSV has no aligned snapshots")
        require(float(np.min(gap)) >= -1e-6 * 2.0,
                f"containment broken: min gap {float(np.min(gap)):.3e}")
        if self.scenario == "circle-in-circle":
            exact = circle_radius(2.0, 0.5, t) - circle_radius(1.0, 0.3, t)
            err = float(np.max(np.abs(gap - exact)))
            require(err <= CIRCLE_RTOL * 4.0,
                    f"circle-in-circle gap deviates from closed form by {err:.3e}")


def containment_fixed_dt(seed: int, out_root: str) -> list[Operation]:
    spec = inputs.containment_fixed_dt(seed)
    ops: list[Operation] = [ContainmentPair(f"containment-fixed-dt pair[{i}]", p)
                            for i, p in enumerate(spec["pairs"])]
    for name in spec["scenarios"]:
        ops.append(ContainmentScenario(f"containment-fixed-dt scenario {name}", name,
                                       os.path.join(out_root, name)))
    return ops


# -------------------------------------------------------- cli-cross-solver

def _snapshots(rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(times, S per snapshot) from a support CSV with `width` rows each."""
    require(rows.shape[0] % width == 0, "CSV rows are not whole snapshots")
    blocks = rows.reshape(-1, width, rows.shape[1])
    require(np.all(blocks[:, :, 0] == blocks[:, :1, 0]), "snapshot rows mix times")
    return blocks[:, 0, 0], blocks[:, :, 2]


def _check_support_csv(path: str, N: int, S_initial: np.ndarray, what: str):
    rows = _load_csv(path)
    times, S = _snapshots(rows, N)
    require(np.array_equal(rows[:N, 1], grid(N)), f"{what}: theta column is not the grid")
    scale = float(np.max(np.abs(S)))
    require(float(np.max(np.abs(S[0] - S_initial))) <= 1e-12 * scale,
            f"{what}: t = 0 support differs from the preset")
    _convex_everywhere(S, what)
    k = rows[:, 4].reshape(S.shape)
    k_ref = 1.0 / curvature_radius(S)
    require(np.allclose(k, k_ref, rtol=1e-9, atol=0.0), f"{what}: k column != 1/(S''+S)")
    return times, S


def _check_horizon(summary: dict, t_end: float, what: str) -> None:
    require(summary["passed"] is True, f"{what}: summary did not pass")
    term = summary["termination"]
    require(term["kind"] == "HorizonReached" and abs(term["t"] - t_end) <= 1e-12,
            f"{what}: expanding run ended {term['kind']} at {term['t']}")


class CrossSolverPair(CliOperation):
    """`curve --solver support` and `--solver lagrangian` on one fourier preset."""

    def __init__(self, name: str, case: dict, out_dir: str):
        super().__init__(name, out_dir)
        self.case = case
        self.dirs = (os.path.join(out_dir, "support"), os.path.join(out_dir, "lagrangian"))

    def run(self):
        c = self.case
        return [_cli(c["support"] + ["--out-dir", self.dirs[0]]),
                _cli(c["lagrangian"] + ["--out-dir", self.dirs[1]])]

    def check_files(self) -> None:
        c = self.case
        sup_dir, lag_dir = self.dirs
        N, M = inputs.CLI_N, c["M"]
        for d in self.dirs:
            _check_horizon(_load_json(os.path.join(d, "curve_summary.json")),
                           inputs.CLI_T_END, self.name)
        times, S = _check_support_csv(os.path.join(sup_dir, "curve.csv"), N,
                                      cosine_series(c["coeffs"], grid(N)), self.name)
        lag = _load_csv(os.path.join(lag_dir, "curve.csv"))
        final = lag[lag[:, 0] == lag[-1, 0]]
        require(final.shape[0] == M, "lagrangian CSV final snapshot is not M rows")
        require(abs(times[-1] - inputs.CLI_T_END) <= 1e-12 and final[0, 0] == times[-1],
                "solvers' final times differ from t_end")
        gap = float(np.max(np.abs(final[:, 2] - trig_interpolate(S[-1], final[:, 1]))))
        bound = CROSS_C * float(np.max(np.abs(S[-1]))) / M**2
        require(gap <= bound, f"cross-solver support gap {gap:.3e} > {bound:.3e} at M = {M}")


class EllipseBothSolvers(CliOperation):
    """The README call `curve --preset ellipse ... --both-solvers`."""

    def run(self):
        return [_cli(inputs.ELLIPSE_ARGV + ["--out-dir", self.out_dir])]

    def check_files(self) -> None:
        summary = _load_json(os.path.join(self.out_dir, "curve_summary.json"))
        _check_horizon(summary, inputs.ELLIPSE_T_END, self.name)
        h = summary["cross_solver_hausdorff"]
        require(h is not None and 0.0 < h <= ELLIPSE_HAUSDORFF_MAX,
                f"cross-solver Hausdorff distance {h}")
        N = inputs.CLI_N
        _check_support_csv(os.path.join(self.out_dir, "curve.csv"), N,
                           ellipse_support(2.0, 1.0, grid(N)), self.name)


def cli_cross_solver(seed: int, out_root: str) -> list[Operation]:
    ops: list[Operation] = []
    for i, case in enumerate(inputs.cli_cross_solver(seed)):
        out_dir = os.path.join(out_root, f"op{i}")
        if case["kind"] == "ellipse":
            ops.append(EllipseBothSolvers(f"cli-cross-solver[{i}] ellipse --both-solvers",
                                          out_dir))
        else:
            ops.append(CrossSolverPair(f"cli-cross-solver[{i}] fourier M={case['M']}",
                                       case, out_dir))
    return ops


OPERATION_LISTS = {
    "spectral-adaptive": spectral_adaptive,
    "containment-fixed-dt": containment_fixed_dt,
    "cli-cross-solver": cli_cross_solver,
}


def build(workload: str, seed: int, out_root: str) -> list[Operation]:
    return OPERATION_LISTS[workload](seed, os.path.join(out_root, workload))

