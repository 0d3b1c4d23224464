"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; each states
the measured worst value and the tolerance it is held to.
"""
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from himcf.curves import polygon_hausdorff
from himcf.errors import OutOfDomain
from himcf.flow import FlowConfig, run_support_flow
from himcf.grids import AngleGrid
from himcf.lagrangian import run_lagrangian_flow, tangential_velocity_max
from himcf.monitors import (
    check_containment,
    check_length_identities,
    check_simons_sphere,
    mean_curvature_acceleration_residual,
    metric_acceleration_residual,
)
from himcf.presets import circle_support, ellipse_curve, ellipse_support
from himcf.radial import (
    CYLINDER,
    CYLINDER_HALF_FACTOR_FLAG,
    classify_regime,
    closed_form_radius,
    forced_radial,
    integrate_radial_ode,
    sphere_geometry,
)
from himcf.support import support_lengths, support_to_curve

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion-{num:02d} {name}: {detail}"
    print(line)
    assert ok, line


def _support_run(S0, V0, **cfg):
    return run_support_flow(np.asarray(S0), np.asarray(V0), FlowConfig(**cfg))


def test_criterion_01_radial_closed_form_reproduction():
    worst_rel = 0.0
    for n in (2, 3, 5):
        geom = sphere_geometry(n)
        for r0 in (0.5, 1.0, 2.0):
            for r1 in (-2.0, -r0 / math.sqrt(n), 0.0, 1.0):
                regime = classify_regime(geom, r0, r1)
                t_cap = 2.0
                if regime.T_max is not None:
                    t_cap = min(t_cap, 0.9 * regime.T_max)
                traj = integrate_radial_ode(geom, r0, r1, 1e-3, t_cap)
                exact = closed_form_radius(geom, r0, r1, traj.times)
                worst_rel = max(worst_rel,
                                float(np.max(np.abs(traj.r - exact))) / r0)
    _report(1, "radial-closed-form", worst_rel <= 1e-8,
            f"worst relative error {worst_rel:.3e} (tolerance 1e-8 * r0, "
            f"36 cases, dt = 1e-3)")


def test_criterion_02_regime_classification_oracle():
    def bisect_root(geom, r0, r1, hi=80.0):
        if closed_form_radius(geom, r0, r1, hi) > 0:
            return None
        lo = 0.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if closed_form_radius(geom, r0, r1, mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    worst_T = 0.0
    mismatches = 0
    geom = CYLINDER
    for r0 in np.linspace(0.2, 3.0, 10):
        for r1 in np.linspace(-3.0, 1.5, 10):
            rep = classify_regime(geom, float(r0), float(r1))
            finite = rep.regime == "ConvergesToPointFiniteTime"
            oracle_finite = r0 + r1 / geom.lam < 0
            if finite != oracle_finite:
                mismatches += 1
                continue
            if finite:
                worst_T = max(worst_T,
                              abs(rep.T_max - bisect_root(geom, float(r0), float(r1))))
    flag_raised = CYLINDER_HALF_FACTOR_FLAG in classify_regime(CYLINDER, 1.0, -2.0).flags
    ok = mismatches == 0 and worst_T <= 1e-6 and flag_raised
    _report(2, "regime-classification", ok,
            f"{mismatches} regime mismatches on the 100-point grid, worst "
            f"T_max error {worst_T:.3e} (tolerance 1e-6), cylinder half-factor "
            f"flag {'raised' if flag_raised else 'MISSING'}")


def test_criterion_03_circle_support_flow():
    slow = _support_run(np.ones(128), -np.ones(128), N=128, t_end=1.0)
    err = float(np.max(np.abs(slow.snapshots[-1].S - math.exp(-1.0))))

    fast = _support_run(np.ones(128), -2.0 * np.ones(128), N=128, t_end=1.0)
    horizon_err = abs(fast.termination.t - 0.5 * math.log(3.0))

    ok = err <= 1e-5 and horizon_err <= 1e-2
    _report(3, "circle-support-flow", ok,
            f"max|S(1) - exp(-1)| = {err:.3e} (tolerance 1e-5); collapse at "
            f"t = {fast.termination.t:.6f}, |t - ln(3)/2| = {horizon_err:.3e} "
            f"(tolerance 1e-2)")


def test_criterion_04_cross_solver_equivalence():
    t_end = 0.5
    s0 = ellipse_support(AngleGrid(128), 2.0, 1.0, speed=0.5)
    sup = _support_run(s0.S, s0.V, N=128, t_end=t_end, record_every=10**6)
    lag = run_lagrangian_flow(ellipse_curve(256, 2.0, 1.0, speed=0.5),
                              FlowConfig(t_end=t_end, record_every=10**6))
    d = polygon_hausdorff(support_to_curve(sup.snapshots[-1]).P,
                          lag.snapshots[-1].P)
    _report(4, "cross-solver-equivalence", d <= 1e-3,
            f"Hausdorff distance {d:.3e} at t = 0.5 (tolerance 1e-3, "
            f"N = 128 / 256 vertices)")


def test_criterion_05_containment_principle():
    grid = AngleGrid(128)

    outer = circle_support(grid, 2.0, 0.5)
    inner = circle_support(grid, 1.0, 0.3)
    rec_a = check_containment(
        _support_run(outer.S, outer.V, N=128, dt=1e-3, t_end=1.0, record_every=10),
        _support_run(inner.S, inner.V, N=128, dt=1e-3, t_end=1.0, record_every=10))

    outer_b = circle_support(grid, 2.0, -1.5)
    inner_b = ellipse_support(grid, 1.2, 0.8, -1.5)
    rec_b = check_containment(
        _support_run(outer_b.S, outer_b.V, N=128, dt=5e-4, t_end=1.0,
                     record_every=20, eps_convex=2e-2),
        _support_run(inner_b.S, inner_b.V, N=128, dt=5e-4, t_end=1.0,
                     record_every=20, eps_convex=2e-2))

    ok = rec_a.passed and rec_b.passed
    _report(5, "containment-principle", ok,
            f"circle-in-circle margin {rec_a.worst:.3e}, ellipse-in-circle "
            f"margin {rec_b.worst:.3e} (tolerance -1e-6 * S-scale)")


def test_criterion_06_length_identities():
    circle = _support_run(np.ones(128), -np.ones(128), N=128, dt=2.5e-4,
                          t_end=0.05, record_every=2)
    circle_first = next(r for r in check_length_identities(circle)
                        if "first" in r.name)

    s0 = ellipse_support(AngleGrid(128), 1.5, 1.0, speed=-0.8)
    ellipse = _support_run(s0.S, s0.V, N=128, dt=1e-3, t_end=0.5,
                           record_every=5)
    report = check_length_identities(ellipse)
    e_first = next(r for r in report if "first" in r.name)
    e_second = next(r for r in report if "second" in r.name)

    ok = (circle_first.worst <= 1e-6 and e_first.passed and e_second.passed)
    _report(6, "length-identities", ok,
            f"circle residual1 {circle_first.worst:.3e} (tolerance 1e-6); "
            f"ellipse residual1 {e_first.worst:.3e} (tolerance "
            f"{e_first.tolerance:.3e}), residual2 {e_second.worst:.3e} "
            f"(tolerance {e_second.tolerance:.3e})")


def test_criterion_07_outcome_scenarios():
    # case with 1/zeta + min f > 0: expansion to the horizon
    s0 = ellipse_support(AngleGrid(128), 1.5, 1.0, speed=1.0)
    grow = _support_run(s0.S, s0.V, N=128, t_end=2.0, record_every=10)
    lengths = support_lengths(grow.data[:, 0])
    times = grow.times
    second_half = lengths[times >= 1.0]
    case1 = (grow.termination.kind == "HorizonReached"
             and bool(np.all(np.diff(second_half) > 0)))

    # case with 1/delta + max f < 0: collapse before the comparison horizon
    shrink = _support_run(np.ones(128), -2.0 * np.ones(128), N=128, dt=1e-3,
                          t_end=1.0, record_every=10)
    T_star = 0.5 * math.log(3.0)
    L = support_lengths(shrink.data[:, 0])
    tt = shrink.times
    # second differences need the uniformly spaced part of the schedule
    # (the final bisected snapshot is off-cadence)
    spacing = np.diff(tt)
    m = len(tt)
    while m > 3 and abs(spacing[m - 2] - spacing[0]) > 1e-9:
        m -= 1
    d2 = L[:m][2:] - 2 * L[:m][1:-1] + L[:m][:-2]
    case2 = (shrink.termination.kind in ("LengthVanished", "CurvatureBlowup")
             and shrink.termination.t <= T_star + 1e-2
             and bool(np.all(np.diff(L) < 0))
             and bool(np.all(d2 > 0)))

    _report(7, "outcome-scenarios", case1 and case2,
            f"expanding run {'ok' if case1 else 'VIOLATED'} (L strictly "
            f"increasing on [1, 2]); shrinking run ends at "
            f"t = {shrink.termination.t:.6f} <= T* + 1e-2 = {T_star + 1e-2:.6f}, "
            f"L decreasing and discretely convex: {'ok' if case2 else 'VIOLATED'}")


def test_criterion_08_sphere_identity_residuals():
    worst_closed = 0.0
    for n in (2, 3, 5):
        for r0 in (0.5, 1.0, 2.0):
            for r1 in (-0.5, 0.0, 1.0):
                for t in (0.0, 0.5, 1.0):
                    try:
                        worst_closed = max(
                            worst_closed,
                            metric_acceleration_residual(n, r0, r1, t),
                            mean_curvature_acceleration_residual(n, r0, r1, t))
                    except OutOfDomain:
                        continue

    # differenced variant on the well-conditioned grid: second differences
    # at dt = 1e-4 degrade both near extinction and at large radii
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
                    worst_fd = max(
                        worst_fd,
                        metric_acceleration_residual(
                            n, r0, r1, t, method="finite_difference"),
                        mean_curvature_acceleration_residual(
                            n, r0, r1, t, method="finite_difference"))

    worst_simons = max(check_simons_sphere(n, r)
                       for n in (2, 3, 5) for r in (0.5, 1.0, 2.0))

    ok = worst_closed <= 1e-10 and worst_fd <= 1e-6 and worst_simons <= 1e-12
    _report(8, "sphere-identity-residuals", ok,
            f"closed-form worst {worst_closed:.3e} (tolerance 1e-10), "
            f"finite-difference worst {worst_fd:.3e} (tolerance 1e-6), "
            f"Simons contraction worst {worst_simons:.3e} (tolerance 1e-12)")


def test_criterion_09_forced_flow_bracketing():
    rep = forced_radial(sphere_geometry(2), lambda t: 0.5 * math.sin(t),
                        -0.5, 0.5, 1.0, 0.0, 1e-3, 2.0)
    worst = min(rep.lower_margin, rep.upper_margin)
    _report(9, "forced-flow-bracketing", worst >= -rep.tolerance,
            f"worst bracket margin {worst:.3e} (tolerance "
            f"-{rep.tolerance:.3e} = -1e-8 * max r_hi)")


def test_criterion_10_normal_flow_invariant():
    traj = run_lagrangian_flow(ellipse_curve(128, 1.5, 1.0, speed=1.0),
                               FlowConfig(t_end=1.0, record_every=10))
    worst = 0.0
    for snap in traj.snapshots:
        cap = max(np.max(np.abs(snap.sigma)), 1e-30)
        worst = max(worst, tangential_velocity_max(snap.P, snap.sigma) / cap)
    _report(10, "normal-flow-invariant", worst <= 1e-6,
            f"worst tangential/normal velocity ratio {worst:.3e} "
            f"(tolerance 1e-6)")


def test_criterion_11_deterministic_outputs(tmp_path):
    script = REPO_ROOT / "scripts" / "run_scenarios.py"
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, str(script), "--out-dir", str(out_dir)],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stderr
        outs.append(out_dir)

    compared = 0
    differing = []
    for path_a in sorted(outs[0].rglob("*")):
        if path_a.suffix not in (".csv", ".json"):
            continue
        path_b = outs[1] / path_a.relative_to(outs[0])
        compared += 1
        if path_a.read_bytes() != path_b.read_bytes():
            differing.append(str(path_a.relative_to(outs[0])))

    ok = compared > 0 and not differing
    _report(11, "deterministic-outputs", ok,
            f"{compared} CSV/JSON files byte-compared across two full "
            f"scenario-suite runs, {len(differing)} differing"
            + (f": {differing}" if differing else ""))
