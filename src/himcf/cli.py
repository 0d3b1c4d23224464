"""Command-line driver.

Four subcommands: `radial` (symmetric reductions against their closed forms),
`curve` (support-PDE and/or Lagrangian runs of a preset curve), `containment`
(ordered pairs on a shared recording schedule), and `verify` (the invariant
suites).  Every run writes flat files into --out-dir; identical configuration
produces byte-identical output.

Exit codes: 0 the run reached a classified termination (convexity loss is a
normal outcome, not an error); 1 configuration problem or an output
directory that cannot be written; 2 a monitored
invariant failed or an internal bracket was violated.  Nonzero exits put a
one-object JSON description of the error on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .curves import PolygonGeometry, polygon_hausdorff
from .errors import (
    CflViolation,
    ConvexityLost,
    HimcfError,
    InsufficientData,
    InvalidConfig,
    InvalidForcing,
    InvalidInitialRadius,
    NonFinite,
    NotConvex,
    OriginNotInterior,
    OutOfDomain,
    PreconditionFailed,
)
from .flow import FlowConfig, FlowTrajectory, run_support_flow, run_support_flows
from .grids import TWO_PI, AngleGrid
from .lagrangian import run_lagrangian_flow, tangential_velocity_max
from .monitors import (
    _snapshot_curvature,
    _snapshot_length,
    _snapshot_polygon,
    aligned_snapshots,
    check_containment,
    check_length_identities,
    check_simons_sphere,
    classify_outcome,
    curvature_evolution_residual,
    mean_curvature_acceleration_residual,
    metric_acceleration_residual,
    outcome_inputs_from_trajectory,
    require_ordered_start,
)
from .output import csv_text, json_text, svg_text, write_text_atomic
from .presets import (
    circle_curve,
    circle_support,
    cosine_series,
    ellipse_curve,
    ellipse_support,
    fourier_support,
)
from .radial import (
    CIRCLE,
    CYLINDER,
    RadialGeometry,
    classify_regime,
    closed_form,
    closed_form_radius,
    forced_radial,
    integrate_radial_ode,
    sphere_geometry,
)
from .report import CheckRecord, MonitorReport, margin_record, residual_record
from .support import PlaneCurve, SupportState, curvature_from_support, length_from_support, support_to_curve

_CONFIG_ERRORS = (
    InvalidConfig,
    InvalidInitialRadius,
    InvalidForcing,
    NotConvex,
    OriginNotInterior,
    ConvexityLost,
    PreconditionFailed,
    InsufficientData,
    OutOfDomain,
    CflViolation,
    NonFinite,
)


class _Parser(argparse.ArgumentParser):
    # Argparse wants to exit(2) on usage problems; route them through the
    # config-error path so the exit-code contract holds.
    def error(self, message):
        raise InvalidConfig(message)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InvalidConfig(f"cannot read config file: {e}")
    except json.JSONDecodeError as e:
        raise InvalidConfig(f"config file is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise InvalidConfig("config file must hold a JSON object")
    return obj


def _opt(args, config: dict, key: str, default=None, kind=None):
    """The flag value, else the config value, else default, converted by kind.

    args may be None to read a plain object such as a curve spec.  A value
    that kind rejects is an InvalidConfig.
    """
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if kind is None or value is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad {key} = {value!r}: {exc}")


def _out_dir(args, config: dict) -> str:
    """--out-dir, else the config's out_dir, else "out"; it must be a string."""
    out_dir = _opt(args, config, "out_dir", "out")
    if not isinstance(out_dir, str):
        raise InvalidConfig(f"out_dir must be a string, got {out_dir!r}")
    return out_dir


def _series(raw) -> list[float]:
    """A constant or a comma list of cosine coefficients, as floats."""
    items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
    return [float(v) for v in items]


def _grid(n: int) -> AngleGrid:
    try:
        return AngleGrid(n)
    except ValueError as exc:
        raise InvalidConfig(str(exc))


def _emit_error(exc: BaseException) -> None:
    sys.stderr.write(json_text({"error": type(exc).__name__, "message": str(exc)}))


def _finish(path: str, summary: dict, records, flags=()) -> int:
    """Add the monitors, flags and verdict to summary and write it; exit 0 or 2."""
    monitor = MonitorReport(records=tuple(records))
    summary["monitors"] = [r.as_dict() for r in sorted(records, key=lambda r: r.name)]
    summary["flags"] = sorted([*flags, *monitor.flags])
    summary["passed"] = monitor.passed
    write_text_atomic(path, json_text(summary))
    return 0 if monitor.passed else 2


# ---------------------------------------------------------------- radial

def cmd_radial(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    shape = _opt(args, config, "geometry", "sphere")
    n = _opt(args, config, "n", 2 if shape == "sphere" else None, int)
    geometry = RadialGeometry(shape, n)
    r0 = _opt(args, config, "r0", 1.0, float)
    r1 = _opt(args, config, "r1", 0.0, float)
    dt = _opt(args, config, "dt", 1e-3, float)
    t_end = _opt(args, config, "t_end", 2.0, float)

    forcing = config.get("forcing")
    if args.forcing_constant is not None:
        forcing = {"kind": "constant", "value": float(args.forcing_constant)}
    if forcing is not None and not isinstance(forcing, dict):
        raise InvalidForcing("forcing must be an object")
    if forcing is not None and forcing.get("kind") in (None, "none"):
        forcing = None

    records: list[CheckRecord] = []
    flags: tuple[str, ...] = ()
    summary: dict = {
        "kind": "radial",
        "geometry": {"kind": geometry.kind, "n": geometry.n},
        "r0": r0, "r1": r1, "dt": dt, "t_end": t_end,
        "forcing": forcing,
    }

    if forcing is None:
        regime = classify_regime(geometry, r0, r1)
        traj = integrate_radial_ode(geometry, r0, r1, dt, t_end)
        closed = closed_form_radius(geometry, r0, r1, traj.times)
        err = np.abs(traj.r - closed)
        records.append(residual_record("radial/closed-form-agreement",
                                       float(np.max(err)), tolerance=1e-8 * r0))
        flags = regime.flags
        summary["regime"] = {
            "regime": regime.regime, "d_plus": regime.d_plus,
            "d_minus": regime.d_minus, "T_max": regime.T_max,
            "label": regime.label,
        }
        summary["extinction_time"] = traj.extinction_time
        table = np.column_stack([traj.times, closed, traj.r, err])
        header = ["t", "r_closed", "r_numeric", "abs_err"]
    else:
        kind = forcing.get("kind")
        try:
            if kind == "constant":
                value = float(forcing["value"])
                func = lambda t: value
                c_lo = c_hi = value
            elif kind == "table":
                ts = np.asarray(forcing.get("times", ()), dtype=float)
                vs = np.asarray(forcing.get("values", ()), dtype=float)
                if (ts.ndim != 1 or ts.size < 2 or ts.shape != vs.shape
                        or not np.all(np.diff(ts) > 0)):
                    raise InvalidForcing("forcing table needs increasing times and matching values")
                func = lambda t: float(np.interp(t, ts, vs))
                c_lo = float(np.min(vs))
                c_hi = float(np.max(vs))
            else:
                raise InvalidForcing(f"unknown forcing kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidForcing(f"malformed {kind} forcing: {exc!r}")

        report = forced_radial(geometry, func, c_lo, c_hi, r0, r1, dt, t_end)
        records.append(margin_record("radial/bracket-lower", report.lower_margin,
                                     tolerance=report.tolerance))
        records.append(margin_record("radial/bracket-upper", report.upper_margin,
                                     tolerance=report.tolerance))
        effective = geometry.stiffness + c_lo
        if kind == "constant" and effective > 0.0:
            closed = closed_form(math.sqrt(effective), r0, r1, report.times)
            err = np.abs(report.r - closed)
            records.append(residual_record("radial/closed-form-agreement",
                                           float(np.max(err)), tolerance=1e-8 * r0))
        else:
            closed = np.full_like(report.times, math.nan)
            err = np.full_like(report.times, math.nan)
        summary["regime"] = None
        summary["extinction_time"] = None
        table = np.column_stack([report.times, closed, report.r, err,
                                 report.r_lo, report.r_hi])
        header = ["t", "r_closed", "r_numeric", "abs_err", "r_lo", "r_hi"]

    write_text_atomic(os.path.join(out_dir, "radial.csv"),
                      csv_text(header, [(None, table)]))
    code = _finish(os.path.join(out_dir, "radial_summary.json"), summary, records, flags)
    regime_text = summary["regime"]["regime"] if summary.get("regime") else "forced"
    print(f"radial: {regime_text}, {len(table)} samples, {'pass' if code == 0 else 'FAIL'}")
    return code


# ----------------------------------------------------------------- curve

def _support_from_spec(spec: dict, grid: AngleGrid) -> SupportState:
    """Initial data of a curve spec: {"preset", "speed", and the preset's keys}.

    The speed is a constant or a list of cosine coefficients in theta.
    """
    if not isinstance(spec, dict) or "preset" not in spec:
        raise InvalidConfig("curve spec must be an object with a 'preset' key")
    v = cosine_series(_opt(None, spec, "speed", 0.0, _series), grid.theta)
    preset = spec["preset"]
    if preset == "circle":
        return circle_support(grid, _opt(None, spec, "r0", 1.0, float), v)
    if preset == "ellipse":
        return ellipse_support(grid, _opt(None, spec, "a", 2.0, float),
                               _opt(None, spec, "b", 1.0, float), v)
    if preset == "fourier":
        coeffs = _opt(None, spec, "coeffs", None, _series)
        if coeffs is None:
            raise InvalidConfig("fourier preset needs coeffs")
        return fourier_support(grid, coeffs, v)
    raise InvalidConfig(f"unknown preset {preset!r}")


def _curve_from_spec(spec: dict, M: int) -> PlaneCurve:
    """The same initial data as M polygon vertices, for the Lagrangian solver."""
    speed = _opt(None, spec, "speed", 0.0, _series)
    if spec["preset"] == "circle":
        alpha = TWO_PI * np.arange(M) / M
        return circle_curve(M, _opt(None, spec, "r0", 1.0, float),
                            cosine_series(speed, alpha))
    if spec["preset"] == "ellipse":
        if len(speed) != 1:
            raise InvalidConfig("ellipse vertices take a constant speed")
        return ellipse_curve(M, _opt(None, spec, "a", 2.0, float),
                             _opt(None, spec, "b", 1.0, float), speed[0])
    return support_to_curve(_support_from_spec(spec, _grid(M)))


def _outline_indices(count: int, limit: int = 13) -> list[int]:
    if count <= limit:
        return list(range(count))
    return sorted(set(np.linspace(0, count - 1, limit).round().astype(int).tolist()))


# Snapshots per batched stencil call when writing a Lagrangian CSV; a small
# chunk keeps the stacked temporaries small at no cost in speed.
_CSV_CHUNK = 16


def _support_csv_blocks(traj: FlowTrajectory):
    for snap in traj.snapshots:
        yield snap.t, np.column_stack([snap.grid.theta, snap.S, snap.V,
                                       curvature_from_support(snap)])


def _curve_csv_blocks(traj: FlowTrajectory):
    """Per snapshot: normal angle, support value, sigma and curvature per vertex.

    One geometry pass per chunk of snapshots on the stacked polygons; the
    solver keeps the vertex count fixed, so every chunk stacks.
    """
    snaps = traj.snapshots
    for start in range(0, len(snaps), _CSV_CHUNK):
        chunk = snaps[start:start + _CSV_CHUNK]
        P = np.stack([snap.P for snap in chunk])
        g = PolygonGeometry(P)
        columns = np.stack([np.mod(g.normal_angles, TWO_PI),
                            np.sum(P * g.frame[1], axis=-1),
                            np.stack([snap.sigma for snap in chunk]),
                            g.curvature], axis=-1)
        for snap, block in zip(chunk, columns):
            yield snap.t, block


def cmd_curve(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    # The same spec object containment reads for each of its two curves.
    spec = {"preset": "circle", "speed": -1.0}
    for key in ("preset", "r0", "a", "b", "coeffs", "speed"):
        value = _opt(args, config, key)
        if value is not None:
            spec[key] = value
    N = _opt(args, config, "N", 128, int)
    M = _opt(args, config, "vertices", 256, int)
    solver = _opt(args, config, "solver", "support")
    if getattr(args, "both_solvers", False):
        solver = "both"
    if solver not in ("support", "lagrangian", "both"):
        raise InvalidConfig(f"unknown solver {solver!r}")

    cfg = FlowConfig(
        N=N,
        dt=_opt(args, config, "dt", None, float),
        cfl_safety=_opt(args, config, "cfl_safety", None, float),
        t_end=_opt(args, config, "t_end", 1.0, float),
        record_every=_opt(args, config, "record_every", 1, int),
    )

    support_traj = None
    lagrangian_traj = None
    if solver in ("support", "both"):
        state0 = _support_from_spec(spec, _grid(N))
        support_traj = run_support_flow(state0.S, state0.V, cfg)
    if solver in ("lagrangian", "both"):
        curve0 = _curve_from_spec(spec, M)
        lagrangian_traj = run_lagrangian_flow(curve0, curve0.sigma, cfg)

    primary = support_traj if support_traj is not None else lagrangian_traj
    outcome = classify_outcome(primary, outcome_inputs_from_trajectory(primary))

    records = list(primary.monitor.records)
    if solver == "both":
        records.extend(
            dataclasses.replace(r, name="lagrangian-" + r.name)
            for r in lagrangian_traj.monitor.records)

    hausdorff = None
    if solver == "both":
        both_full = (support_traj.termination.kind == "HorizonReached"
                     and lagrangian_traj.termination.kind == "HorizonReached")
        if both_full:
            hausdorff = polygon_hausdorff(_snapshot_polygon(support_traj.snapshots[-1]),
                                          _snapshot_polygon(lagrangian_traj.snapshots[-1]))

    blocks = (_support_csv_blocks if primary.is_support else _curve_csv_blocks)(primary)
    write_text_atomic(os.path.join(out_dir, "curve.csv"),
                      csv_text(["t", "theta", "S", "V", "k"], blocks))

    outlines = [_snapshot_polygon(traj.snapshots[i])
                for traj in (support_traj, lagrangian_traj) if traj is not None
                for i in _outline_indices(len(traj.snapshots))]
    write_text_atomic(os.path.join(out_dir, "curve.svg"), svg_text(outlines))

    final_k = _snapshot_curvature(primary.snapshots[-1])
    summary = {
        "kind": "curve",
        "preset": spec["preset"],
        "solver": solver,
        "N": N,
        "vertices": M if solver != "support" else None,
        "t_end": cfg.t_end,
        "dt": cfg.dt,
        "record_every": cfg.record_every,
        "termination": dataclasses.asdict(primary.termination),
        "outcome": dataclasses.asdict(outcome),
        "final_length": _snapshot_length(primary.snapshots[-1]),
        "final_k_min": float(np.min(final_k)),
        "final_k_max": float(np.max(final_k)),
        "cross_solver_hausdorff": hausdorff,
    }
    code = _finish(os.path.join(out_dir, "curve_summary.json"), summary, records)
    print(f"curve: {primary.termination.kind} at t = {primary.termination.t:.6f}, "
          f"outcome {outcome.predicted}"
          + (f", hausdorff {hausdorff:.2e}" if hausdorff is not None else ""))
    return code


# ----------------------------------------------------------- containment

# Shrinking runs use an explicit curvature ceiling (k >= 1/eps_convex is
# blowup): with the default microscopic floor, the fixed-dt CFL policing
# would fire before the degeneration is ever reached.
_SCENARIOS = {
    "circle-in-circle": {
        "outer": {"preset": "circle", "r0": 2.0, "speed": 0.5},
        "inner": {"preset": "circle", "r0": 1.0, "speed": 0.3},
        "t_end": 1.0, "dt": 1e-3, "record_every": 10, "eps_convex": None,
    },
    "ellipse-in-circle": {
        "outer": {"preset": "circle", "r0": 2.0, "speed": -1.5},
        "inner": {"preset": "ellipse", "a": 1.2, "b": 0.8, "speed": -1.5},
        "t_end": 1.0, "dt": 5e-4, "record_every": 20, "eps_convex": 2e-2,
    },
}


def _containment_config(args, config: dict, preset: dict) -> FlowConfig:
    # Fixed steps keep the two recording schedules aligned for comparison.
    return FlowConfig(
        N=_opt(args, config, "N", 128, int),
        dt=_opt(args, config, "dt", preset["dt"], float),
        t_end=_opt(args, config, "t_end", preset["t_end"], float),
        eps_convex=_opt(args, config, "eps_convex", preset["eps_convex"], float),
        record_every=_opt(args, config, "record_every", preset["record_every"], int),
    )


def _run_containment_pair(outer_spec: dict, inner_spec: dict, cfg: FlowConfig):
    pair = [_support_from_spec(spec, _grid(cfg.N)) for spec in (outer_spec, inner_spec)]
    require_ordered_start(*pair)
    outer, inner = run_support_flows([s.S for s in pair], [s.V for s in pair], cfg)
    return outer, inner, check_containment(outer, inner)


def cmd_containment(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    scenario = _opt(args, config, "scenario")
    if scenario is not None:
        if scenario not in _SCENARIOS:
            raise InvalidConfig(
                f"unknown scenario {scenario!r}; valid: {sorted(_SCENARIOS)}")
        preset = _SCENARIOS[scenario]
    elif "outer" in config and "inner" in config:
        preset = {**_SCENARIOS["circle-in-circle"],
                  "outer": config["outer"], "inner": config["inner"]}
    else:
        scenario = "circle-in-circle"
        preset = _SCENARIOS[scenario]
    outer_spec = preset["outer"]
    inner_spec = preset["inner"]

    cfg = _containment_config(args, config, preset)
    outer, inner, record = _run_containment_pair(outer_spec, inner_spec, cfg)
    rows = [(a.t, float(np.min(a.S - b.S))) for a, b in aligned_snapshots(outer, inner)]
    write_text_atomic(os.path.join(out_dir, "containment.csv"),
                      csv_text(["t", "min_gap"], [(None, np.reshape(rows, (-1, 2)))]))

    summary = {
        "kind": "containment",
        "scenario": scenario,
        "outer": outer_spec,
        "inner": inner_spec,
        "N": cfg.N, "dt": cfg.dt, "t_end": cfg.t_end,
        "record_every": cfg.record_every, "eps_convex": cfg.eps_convex,
        "outer_termination": {"kind": outer.termination.kind, "t": outer.termination.t},
        "inner_termination": {"kind": inner.termination.kind, "t": inner.termination.t},
    }
    code = _finish(os.path.join(out_dir, "containment_summary.json"), summary, [record])
    print(f"containment: margin {record.worst:.3e} (tolerance {record.tolerance:.3e}), "
          f"{'pass' if code == 0 else 'FAIL'}")
    return code


# ---------------------------------------------------------------- verify

def _suite_radial() -> list[CheckRecord]:
    worst = 0.0
    for n in (2, 3):
        geom = sphere_geometry(n)
        for r0 in (1.0, 2.0):
            for r1 in (-1.0, 0.0, 1.0):
                regime = classify_regime(geom, r0, r1)
                t_end = 2.0 if regime.T_max is None else min(2.0, 0.9 * regime.T_max)
                traj = integrate_radial_ode(geom, r0, r1, 1e-3, t_end)
                closed = closed_form_radius(geom, r0, r1, traj.times)
                worst = max(worst, float(np.max(np.abs(traj.r - closed))) / r0)

    half_log3 = 0.5 * math.log(3.0)
    horizon = classify_regime(CIRCLE, 1.0, -2.0)
    horizon_err = abs(horizon.T_max - half_log3)
    labels_ok = (
        horizon.regime == "ConvergesToPointFiniteTime"
        and classify_regime(CIRCLE, 1.0, -1.0).regime == "ConvergesToPointInfiniteTime"
        and classify_regime(CIRCLE, 1.0, 0.0).regime == "ExpandsForever"
        and bool(classify_regime(CYLINDER, 1.0, -2.0).flags)
    )
    return [
        residual_record("radial/closed-form-agreement", worst, tolerance=1e-8),
        residual_record("radial/circle-horizon", horizon_err, tolerance=1e-9),
        margin_record("radial/regime-labels", 0.0 if labels_ok else -1.0,
                      tolerance=0.0),
    ]


def _suite_sphere_identities() -> list[CheckRecord]:
    worst_closed = 0.0
    for n in (2, 3, 5):
        for r0 in (0.5, 1.0, 2.0):
            for r1 in (-0.5, 0.0, 1.0):
                for t in (0.0, 0.5, 1.0):
                    try:
                        a = metric_acceleration_residual(n, r0, r1, t)
                        b = mean_curvature_acceleration_residual(n, r0, r1, t)
                    except OutOfDomain:
                        continue
                    worst_closed = max(worst_closed, a, b)

    # The second central difference at dt = 1e-4 is only meaningful on
    # O(1)-scale solutions: near extinction the truncation term blows up
    # with H, and large radii promote roundoff in d^2(r^2)/dt^2.  The grid
    # stays where the check conditions well.
    worst_fd = 0.0
    for n in (2, 3, 5):
        geom = sphere_geometry(n)
        for r0 in (0.8, 1.0, 1.25):
            for r1 in (-0.3, 0.0, 0.5):
                for t in (0.0, 0.3, 0.6):
                    regime = classify_regime(geom, r0, r1)
                    if regime.T_max is not None and t >= regime.T_max:
                        continue
                    if not 0.5 <= closed_form_radius(geom, r0, r1, t) <= 2.0:
                        continue
                    af = metric_acceleration_residual(
                        n, r0, r1, t, method="finite_difference")
                    bf = mean_curvature_acceleration_residual(
                        n, r0, r1, t, method="finite_difference")
                    worst_fd = max(worst_fd, af, bf)

    worst_simons = max(check_simons_sphere(n, r)
                       for n in (2, 3, 5) for r in (0.5, 1.0, 2.0))
    return [
        residual_record("sphere-identities/closed-form", worst_closed,
                        tolerance=1e-10),
        residual_record("sphere-identities/finite-difference", worst_fd,
                        tolerance=1e-6),
        residual_record("sphere-identities/simons-contraction", worst_simons,
                        tolerance=1e-12),
    ]


def _suite_containment() -> list[CheckRecord]:
    out = []
    for name, scenario in sorted(_SCENARIOS.items()):
        cfg = _containment_config(None, {}, scenario)
        _, _, record = _run_containment_pair(scenario["outer"], scenario["inner"], cfg)
        out.append(dataclasses.replace(record, name=f"containment/{name}"))
    return out


def _suite_length() -> list[CheckRecord]:
    grid = AngleGrid(128)
    circle = circle_support(grid, 1.0, -1.0)
    cfg = FlowConfig(N=128, dt=2.5e-4, t_end=0.05, record_every=2)
    circle_report = check_length_identities(run_support_flow(circle.S, circle.V, cfg))
    first = circle_report.records[0]

    ellipse = ellipse_support(grid, 1.5, 1.0, -0.8)
    cfg = FlowConfig(N=128, dt=1e-3, t_end=0.5, record_every=5)
    ellipse_report = check_length_identities(run_support_flow(ellipse.S, ellipse.V, cfg))
    return [
        # The circle has spatially constant speed, so the first identity is
        # exact and the residual is pure time-differencing error.
        residual_record("length/circle-first-identity", first.worst,
                        tolerance=1e-6, t_worst=first.t_worst),
        dataclasses.replace(ellipse_report.records[0],
                            name="length/ellipse-first-identity"),
        dataclasses.replace(ellipse_report.records[1],
                            name="length/ellipse-second-identity"),
    ]


def _suite_outcomes() -> list[CheckRecord]:
    grid = AngleGrid(128)
    growing = ellipse_support(grid, 1.5, 1.0, 1.0)
    cfg = FlowConfig(N=128, t_end=2.0, record_every=5)
    traj = run_support_flow(growing.S, growing.V, cfg)
    outcome = classify_outcome(traj, outcome_inputs_from_trajectory(traj))
    long_ok = outcome.predicted == "LongTime" and outcome.agreement
    L = np.array([length_from_support(s) for s in traj.snapshots])
    late = L[traj.times >= 0.5 * traj.times[-1]]
    growth_margin = float(np.min(np.diff(late)))

    shrinking = circle_support(grid, 1.0, -2.0)
    traj2 = run_support_flow(shrinking.S, shrinking.V, cfg)
    outcome2 = classify_outcome(traj2, outcome_inputs_from_trajectory(traj2))
    finite_ok = outcome2.predicted == "FiniteTime" and outcome2.agreement
    horizon_margin = outcome2.T_star + 1e-2 - outcome2.observed_t
    return [
        margin_record("outcomes/expanding-agreement", 0.0 if long_ok else -1.0,
                      tolerance=0.0),
        margin_record("outcomes/expanding-length-growth", growth_margin,
                      tolerance=0.0),
        margin_record("outcomes/shrinking-agreement", 0.0 if finite_ok else -1.0,
                      tolerance=0.0),
        margin_record("outcomes/shrinking-horizon-bound", horizon_margin,
                      tolerance=0.0),
    ]


def _suite_normal_flow() -> list[CheckRecord]:
    curve = ellipse_curve(128, 1.5, 1.0, 1.0)
    cfg = FlowConfig(N=128, t_end=1.0, record_every=10)
    traj = run_lagrangian_flow(curve, curve.sigma, cfg)
    worst = max(tangential_velocity_max(s) for s in traj.snapshots)
    scale = max(float(np.max(np.abs(s.sigma))) for s in traj.snapshots)
    return [residual_record("normal-flow/tangential-velocity", worst,
                            tolerance=1e-6 * scale)]


def _suite_curvature_equation() -> list[CheckRecord]:
    grid = AngleGrid(128)
    state = ellipse_support(grid, 1.5, 1.0, -0.5)
    cfg = FlowConfig(N=128, dt=1e-3, t_end=0.3, record_every=10)
    residual = curvature_evolution_residual(run_support_flow(state.S, state.V, cfg))
    return [residual_record("curvature-equation/ellipse-run", residual,
                            tolerance=1e-2)]


def _suite_forced_bracket() -> list[CheckRecord]:
    report = forced_radial(sphere_geometry(2), lambda t: 0.5 * math.sin(t),
                           -0.5, 0.5, 1.0, 0.0, 1e-3, 2.0)
    return [
        margin_record("forced-bracket/lower", report.lower_margin,
                      tolerance=report.tolerance),
        margin_record("forced-bracket/upper", report.upper_margin,
                      tolerance=report.tolerance),
    ]


_SUITES = {
    "radial": _suite_radial,
    "sphere-identities": _suite_sphere_identities,
    "containment": _suite_containment,
    "length": _suite_length,
    "outcomes": _suite_outcomes,
    "normal-flow": _suite_normal_flow,
    "curvature-equation": _suite_curvature_equation,
    "forced-bracket": _suite_forced_bracket,
}


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    names = list(args.suites) or sorted(_SUITES)
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise InvalidConfig(
            f"unknown suite(s) {unknown}; valid: {sorted(_SUITES)}")

    records = sorted((r for name in names for r in _SUITES[name]()), key=lambda r: r.name)
    code = _finish(os.path.join(out_dir, "verify_report.json"),
                   {"kind": "verify", "suites": sorted(names)}, records)
    for r in records:
        status = "PASS" if (r.passed or r.flagged) else "FAIL"
        suffix = " [flagged]" if r.flagged else ""
        print(f"{status} {r.name} ({r.kind} {r.worst:.3e}, tolerance "
              f"{r.tolerance:.3e}){suffix}")
    print(f"verify: {'all checks passed' if code == 0 else 'CHECKS FAILED'}")
    return code


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="himcf",
                     description="Hyperbolic inverse mean curvature flow toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--config")

    p = sub.add_parser("radial", help="symmetric reductions vs closed forms")
    common(p)
    p.add_argument("--geometry", choices=["sphere", "cylinder", "circle"])
    p.add_argument("--n", type=int)
    p.add_argument("--r0", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--forcing-constant", dest="forcing_constant", type=float)
    p.set_defaults(func=cmd_radial)

    p = sub.add_parser("curve", help="support-PDE / Lagrangian curve flow")
    common(p)
    p.add_argument("--preset", choices=["circle", "ellipse", "fourier"])
    p.add_argument("--r0", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--coeffs")
    p.add_argument("--speed")
    p.add_argument("--solver", choices=["support", "lagrangian", "both"])
    p.add_argument("--both-solvers", dest="both_solvers", action="store_true")
    p.add_argument("--N", dest="N", type=int)
    p.add_argument("--vertices", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--cfl-safety", dest="cfl_safety", type=float)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--record-every", dest="record_every", type=int)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("containment", help="ordered pairs stay ordered")
    common(p)
    p.add_argument("--scenario", choices=sorted(_SCENARIOS))
    p.add_argument("--N", dest="N", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--eps-convex", dest="eps_convex", type=float)
    p.add_argument("--record-every", dest="record_every", type=int)
    p.set_defaults(func=cmd_containment)

    p = sub.add_parser("verify", help="run the invariant suites")
    common(p)
    p.add_argument("suites", nargs="*", metavar="suite",
                   help=f"subset of {sorted(_SUITES)} (default: all)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise InvalidConfig("a subcommand is required "
                                "(radial | curve | containment | verify)")
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        _emit_error(exc)
        return 1
    except HimcfError as exc:
        _emit_error(exc)
        return 2
    except OSError as exc:      # the output directory cannot be made or written
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
