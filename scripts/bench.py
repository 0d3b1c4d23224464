#!/usr/bin/env python3
"""A/B benchmark of two source checkouts with perfbench, in alternating pairs.

    python3 scripts/bench.py --parent DIR --change DIR --pairs 10 --seconds 20 \
        --seed 1 7 --out BENCH.json

    python3 scripts/bench.py --parent DIR --change DIR --counts --layers --out BENCH.json

For every seed and workload this runs `perfbench/run.py` once in each
checkout per pair, and alternates which side runs first, since a run can
slow the one after it.  The output file holds, per workload, seed and
end-to-end metric: each side's values, median and quartiles, the change's
median relative to the parent's, and the pairs in which the change was
better; plus the Python and numpy versions and the CPU count of the host.
A summary table is printed to standard output, then each change median
against the one in the newest earlier BENCH_<n>.json beside --out (the
highest n below the output's own, if its name has one).  Both checkouts must be
whole source trees (`src/` and `perfbench/`); each run writes only inside
its own checkout's `perfbench/_out` and `perfbench/_results`.

With --counts nothing is timed.  For each checkout a fresh interpreter
counts, with sys.setprofile, the Python and C calls per accepted step of
fixed-dt support runs at N in COUNT_N and B in COUNT_B and of a Lagrangian
run at COUNT_M vertices, and the calls of one resample_equal_arclength of
that run's COUNT_M-vertex ellipse with its sigma (a run resamples once per
RESAMPLE_INTERVAL accepted steps, outside the per-step difference), of one
curve_to_support of a 512-vertex ellipse to N = 128, of one
curvature_evolution_residual of the verify curvature-equation run, of one
in-process himcf.cli.main call of the README's `curve ... --both-solvers`
example (CLI_ARGV), written into a temporary directory, and of one adaptive
support run (ADAPTIVE_RUN), whose row also holds its accepted steps: a
change that keeps them keeps the adaptive step schedule.  One more row counts
the step_supports calls of one spectral-adaptive pass (every run of perfbench
seed SWEEP_SEED, inputs from this script's perfbench/), those made while
bisecting apart from the rest.  The counts are
exact for one Python and numpy version.  They go under "counts" in --out,
next to what the file already holds (run the timed pairs first), with each
checkout's src_lines (the line count of src/himcf/*.py), and a table of both
sides is printed.

With --layers the stage layers of layer_calls (the spectral kernel and one
stage as a run's stages call them, step_supports at B = 1 and 2, the CFL and
admissibility checks at N in LAYER_N; a fixed-dt Lagrangian run of
LAYER_LAGRANGIAN_STEPS steps at M = 2N, so that every step meets a new curve
as in a run; curve_to_support of a 512-vertex polygon, polygon_hausdorff;
and, from the two runs of the CLI_ARGV example, svg_text of the outlines that
cmd_curve draws and the CSV blocks of its Lagrangian trajectory) are timed
instead, again in one fresh interpreter per checkout.  Each layer gets
LAYER_SETS sets, each the minimum over LAYER_REPEAT loops, sized to take about
LAYER_LOOP_S, of the time per call; the two checkouts time their loops in
turn.  The parent's interpreter starts first for the first half of the sets
and the change's for the second half, so that a bias of one interpreter slot
shows as a split between them.
The set minima (in microseconds per call) and their spread go under "layers"
in --out, and a table of both sides is printed, with the sets in which the
change's minimum is below the parent's set of the same index, per half.

The output file's directory is created if it is missing.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import timeit
from functools import partial

import numpy as np

COUNT_N = (64, 128, 256, 512)
COUNT_B = (1, 2)
COUNT_M = 256
COUNT_STEPS = (10, 30)    # two run lengths; their difference is the per-step work
# The README's two-solver example, as perfbench's cli-cross-solver runs it.
CLI_ARGV = ["curve", "--preset", "ellipse", "--a", "2", "--b", "1", "--speed", "0.5",
            "--t-end", "0.5", "--both-solvers"]
# The adaptive --counts row: the README ellipse's support run (a, b, speed, N, t_end).
ADAPTIVE_RUN = (2.0, 1.0, 0.5, 128, 0.5)
# The --counts row of one spectral-adaptive pass: every run of this perfbench seed.
SWEEP_SEED = 1
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
LAYER_N = (64, 128, 256, 512)
LAYER_SETS = 16           # half in each start order; 5 sets could not resolve 5-10 %
LAYER_LAGRANGIAN_STEPS = 20
LAYER_REPEAT = 7
LAYER_LOOP_S = 0.02       # target seconds of one timed loop of calls


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; the JSON object of its last output line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(parent: list[dict], change: list[dict], metrics: dict) -> dict:
    """Per-metric summaries of the paired reports of one workload and seed."""
    out = {}
    for name, spec in metrics.items():
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        pa, pb = summary(a), summary(b)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent": pa, "change": pb,
            "change_pct": 100.0 * (pb["median"] - pa["median"]) / pa["median"],
            "pairs_won": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
            "pairs": len(a),
        }
    return out


def profiled_calls(fn):
    """({"python": n, "c": n}, fn()): the calls sys.setprofile sees while fn runs.

    The garbage collector is off meanwhile: a collection runs the callbacks
    in gc.callbacks (hypothesis installs one), which would add calls.
    """
    counts = {"python": 0, "c": 0}

    def profile(frame, event, arg):
        if event == "call":
            counts["python"] += 1
        elif event == "c_call":
            counts["c"] += 1

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return counts, result


def per_step_calls(run) -> dict:
    """Calls per accepted step of run(steps), a fixed-dt run returning trajectories.

    After a warm-up run, the calls of a long and a short run are differenced
    and divided by their difference in steps, so set-up and the final
    record cancel.
    """
    short, long = COUNT_STEPS
    run(short)
    (a, traj_a), (b, traj_b) = (profiled_calls(partial(run, n)) for n in (short, long))
    steps = len(traj_b[0].times) - len(traj_a[0].times)
    out = {key: (b[key] - a[key]) / steps for key in a}
    out["total"] = out["python"] + out["c"]
    return out


def per_call_calls(fn) -> dict:
    """Calls of one fn(), after a warm-up call that fills the caches it uses."""
    fn()
    out, _ = profiled_calls(fn)
    out["total"] = out["python"] + out["c"]
    return out


def call_counts() -> dict:
    """Profiled calls per step, or per call, of the himcf on sys.path (see --counts)."""
    from himcf.cli import main as cli_main
    from himcf.curves import resample_equal_arclength
    from himcf.flow import FlowConfig, run_support_flow, run_support_flows
    from himcf.grids import AngleGrid
    from himcf.lagrangian import run_lagrangian_flow
    from himcf.monitors import curvature_evolution_residual
    from himcf.presets import ellipse_curve, ellipse_support
    from himcf.support import curve_to_support

    def support_run(N, B, steps, dt=1e-3):
        s = ellipse_support(AngleGrid(N), 2.0, 1.0, speed=0.5)
        return run_support_flows([s.S, 1.5 * s.S][:B], [s.V, s.V][:B],
                                 FlowConfig(N=N, dt=dt, t_end=steps * dt))

    def lagrangian_run(steps, dt=1e-4):
        curve = ellipse_curve(COUNT_M, 2.0, 1.0, speed=0.5)
        return [run_lagrangian_flow(curve, FlowConfig(dt=dt, t_end=steps * dt))]

    def cli_run(argv):
        with contextlib.redirect_stdout(io.StringIO()):    # the one-line report
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"himcf {' '.join(argv)} exited with {code}")

    counts = {f"support N={N} B={B}": per_step_calls(partial(support_run, N, B))
              for N in COUNT_N for B in COUNT_B}
    counts[f"lagrangian M={COUNT_M}"] = per_step_calls(lagrangian_run)
    curve = ellipse_curve(COUNT_M, 2.0, 1.0, speed=0.5)
    counts[f"resample_equal_arclength M={COUNT_M}, one call"] = per_call_calls(
        partial(resample_equal_arclength, curve.P, [curve.sigma]))
    polygon, grid = ellipse_curve(512, 2.0, 1.0), AngleGrid(128)
    counts["curve_to_support M=512 N=128, one call"] = per_call_calls(
        partial(curve_to_support, polygon, grid))
    s = ellipse_support(grid, 1.5, 1.0, -0.5)    # as the verify curvature-equation suite
    traj = run_support_flow(s.S, s.V, FlowConfig(N=128, dt=1e-3, t_end=0.3, record_every=10))
    counts["curvature_evolution_residual verify run, one call"] = per_call_calls(
        partial(curvature_evolution_residual, traj))
    with tempfile.TemporaryDirectory() as out_dir:
        counts["cli curve --both-solvers README ellipse, one call"] = per_call_calls(
            partial(cli_run, CLI_ARGV + ["--out-dir", out_dir]))
    a, b, speed, N, t_end = ADAPTIVE_RUN
    s = ellipse_support(AngleGrid(N), a, b, speed=speed)
    adaptive = partial(run_support_flow, s.S, s.V, FlowConfig(N=N, t_end=t_end))
    counts[f"adaptive support run {a:g}:{b:g} ellipse N={N} to t={t_end:g}, one call"] = {
        **per_call_calls(adaptive), "steps": len(adaptive().times) - 1}
    counts[f"step_supports calls of one spectral-adaptive pass, seed {SWEEP_SEED}"] = (
        sweep_step_calls(SWEEP_SEED))
    return counts


def sweep_step_calls(seed: int) -> dict:
    """step_supports calls of perfbench's spectral-adaptive runs of seed, bisection apart."""
    import himcf.flow as flow
    sys.path.insert(0, PERFBENCH)
    try:
        import inputs
    finally:
        sys.path.remove(PERFBENCH)
    counts = {"stepping": 0, "bisection": 0}
    where = ["stepping"]
    step, bisect = flow.step_supports, flow.bisect_to_violation

    def counted_step(*args, **kwargs):
        counts[where[-1]] += 1
        return step(*args, **kwargs)

    def counted_bisect(*args, **kwargs):
        where.append("bisection")
        try:
            return bisect(*args, **kwargs)
        finally:
            where.pop()

    flow.step_supports, flow.bisect_to_violation = counted_step, counted_bisect
    try:
        for case in inputs.spectral_adaptive(seed):
            for r in case["runs"]:
                flow.run_support_flow(r["S0"], r["V0"],
                                      flow.FlowConfig(N=r["N"], t_end=inputs.SPECTRAL_T_END))
    finally:
        flow.step_supports, flow.bisect_to_violation = step, bisect
    return {**counts, "total": counts["stepping"] + counts["bisection"]}


def layer_calls() -> dict:
    """Each stage layer of the himcf on sys.path as a call without arguments (see --layers)."""
    from himcf.cli import _csv_blocks, _curve_from_spec, _outline_indices, _support_from_spec
    from himcf.curves import polygon_hausdorff
    import himcf.flow
    from himcf.flow import (FlowConfig, cfl_bound, run_support_flow, step_supports,
                            validate_support_state)
    from himcf.grids import AngleGrid, support_derivatives
    from himcf.lagrangian import run_lagrangian_flow
    from himcf.output import svg_text
    from himcf.presets import ellipse_curve, ellipse_support
    from himcf.support import curve_to_support, support_lengths

    P, Q = ellipse_curve(256, 2.0, 1.0).P, ellipse_curve(256, 2.1, 0.9).P
    calls = {"polygon_hausdorff M=256": lambda: polygon_hausdorff(P, Q)}
    # The two runs of CLI_ARGV, as cmd_curve sets them up from its spec and defaults.
    spec, cfg = {"preset": "ellipse", "a": "2", "b": "1", "speed": "0.5"}, FlowConfig(t_end=0.5)
    state0, curve0 = _support_from_spec(spec, AngleGrid(cfg.N)), _curve_from_spec(spec, 256)
    runs = [run_support_flow(state0.S, state0.V, cfg),
            run_lagrangian_flow(curve0, cfg)]
    outlines = [traj.polygon(i) for traj in runs for i in _outline_indices(len(traj.times))]
    calls.update({
        f"svg_text of the README --both-solvers outlines ({len(outlines)})":
            partial(svg_text, outlines),
        f"list(_csv_blocks) of the README Lagrangian run ({len(runs[1].times)} x 256)":
            lambda: list(_csv_blocks(runs[1])),
    })
    polygon = ellipse_curve(512, 2.0, 1.0)
    dt = 1e-4
    lagrangian_cfg = FlowConfig(dt=dt, t_end=LAYER_LAGRANGIAN_STEPS * dt)
    for N in LAYER_N:
        grid = AngleGrid(N)
        s = ellipse_support(grid, 2.0, 1.0, speed=0.5)
        y = np.array([[s.S, s.V], [1.5 * s.S, s.V]])
        members = np.stack([y, support_derivatives(y)], axis=1)
        kernel, stage, work = _stage_layers(himcf.flow, members[:1])
        L0 = float(support_lengths(s.S))
        curve = ellipse_curve(2 * N, 2.0, 1.0, speed=0.5)
        calls.update({f"{name} N={N}": fn for name, fn in {
            "spectral kernel as a stage calls it": kernel,
            "one RK4 stage (kernel and rhs)": stage,
            "step_supports B=1": partial(step_supports, members[:1], 1e-3, work),
            "step_supports B=2": partial(step_supports, members, 1e-3, work),
            "cfl_bound": partial(cfl_bound, members[0]),
            "validate_support_state": partial(validate_support_state, members[0], 1e-8, L0),
            f"run_lagrangian_flow {LAYER_LAGRANGIAN_STEPS} steps M=2N":
                partial(run_lagrangian_flow, curve, lagrangian_cfg),
            "curve_to_support M=512": partial(curve_to_support, polygon, grid),
        }.items()})
    return calls


def _stage_layers(flow, member):
    """(kernel, stage, work) of one member, as a run's stages call them from its _Stages."""
    work = flow._Stages()
    stage = work[member.shape]
    stage.u[...] = member[:, 0]
    return (partial(flow.support_pair, stage.u, stage.S, stage.d, stage.rho, *stage.plan),
            partial(stage.rhs, stage.u), work)


def serve_layers() -> None:
    """Print the layer names, then answer each name read from stdin with one timed loop.

    The reply is the loop's microseconds per call; a layer's loop length is
    fixed at its first request.
    """
    calls = layer_calls()
    print(json.dumps(list(calls)), flush=True)
    numbers = {}
    for line in sys.stdin:
        name = line.strip()
        timer = timeit.Timer(calls[name])
        if name not in numbers:
            timer.timeit(1)
            numbers[name] = max(1, round(LAYER_LOOP_S / timer.timeit(1)))
        number = numbers[name]
        print(json.dumps(1e6 * timer.timeit(number) / number), flush=True)


def layer_times(sides: dict) -> dict:
    """LAYER_SETS sets of each layer per side, from one serve_layers interpreter per checkout.

    The first half of the sets start the parent's interpreter first, the second
    half the change's (a new pair of interpreters), since one slot can be
    faster whatever code it runs.  Within a set the two sides time their
    LAYER_REPEAT loops in turn, the side that goes first alternating, so drift
    in the host's speed reaches both alike.
    """
    times = {side: {} for side in sides}
    for order in (list(sides), list(sides)[::-1]):
        for side, rows in _layer_sets({side: sides[side] for side in order},
                                      LAYER_SETS // 2).items():
            for name, sets in rows.items():
                times[side].setdefault(name, []).extend(sets)
    return times


def _layer_sets(sides: dict, count: int) -> dict:
    # count sets of every layer, from interpreters started in the order of sides.
    procs = {side: subprocess.Popen(
        [sys.executable, "-c", "import bench; bench.serve_layers()"], env=_checkout_env(path),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) for side, path in sides.items()}

    def ask(side, request=None):
        proc = procs[side]
        if request is not None:
            proc.stdin.write(request + "\n")
            proc.stdin.flush()
        reply = proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the {side} layer timer exited with {proc.wait()}")
        return json.loads(reply)

    try:
        names = [ask(side) for side in procs][-1]
        times = {side: {name: [] for name in names} for side in procs}
        for _ in range(count):
            for name in names:
                loops = {side: [] for side in procs}
                for r in range(LAYER_REPEAT):
                    for side in (list(procs) if r % 2 == 0 else list(procs)[::-1]):
                        loops[side].append(ask(side, name))
                for side, values in loops.items():
                    times[side][name].append(min(values))
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    return times


def _checkout_env(checkout: str) -> dict:
    # The himcf of checkout/src, and this script's directory for `import bench`.
    scripts = os.path.dirname(os.path.abspath(__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(checkout, "src"), scripts]))


def side_counts(checkout: str) -> dict:
    """call_counts() of the himcf under checkout/src, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, bench; print(json.dumps(bench.call_counts()))"],
        env=_checkout_env(checkout), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def src_lines(checkout: str) -> int:
    """Lines of checkout/src/himcf/*.py, as `cat src/himcf/*.py | wc -l` counts them."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "himcf", "*.py")):
        with open(path) as fh:
            total += fh.read().count("\n")
    return total


def update_report(out: str, key: str, value: dict) -> None:
    """Set key in the JSON object of out (created if missing), keeping its other keys."""
    report = {}
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
    report[key] = {"python": platform.python_version(), "numpy": np.__version__, **value}
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def write_counts(sides: dict, out: str) -> None:
    """Both sides' call_counts and src_lines under "counts" in out; a table is printed."""
    counts = {side: side_counts(path) for side, path in sides.items()}
    lines = {side: src_lines(path) for side, path in sides.items()}
    update_report(out, "counts", {"unit": "profiled calls per accepted step, or per call "
                                          "in a row named one call", **counts,
                                  "src_lines": lines})
    print("| run | parent C + Python (stepping + bisection) = total | change | change |")
    print("|---|---|---|---|")

    def terms(row):
        parts = ("c", "python") if "c" in row else ("stepping", "bisection")
        return " + ".join(f"{row[k]:g}" for k in parts) + f" = {row['total']:g}"
    for name, p in counts["parent"].items():
        c = counts["change"][name]
        print(f"| {name} | {terms(p)} | {terms(c)} | "
              f"{100.0 * (c['total'] - p['total']) / p['total']:+.1f} % |")
    p, c = lines["parent"], lines["change"]
    print(f"| src lines | {p} | {c} | {100.0 * (c - p) / p:+.1f} % |")


def write_layers(sides: dict, out: str) -> None:
    """Both sides' layer_times under "layers" in out; a table is printed."""
    times = layer_times(sides)
    layers = {side: {name: {"sets": sets, "min": min(sets),
                            "spread_pct": 100.0 * (max(sets) - min(sets)) / min(sets)}
                     for name, sets in rows.items()}
              for side, rows in times.items()}
    half = LAYER_SETS // 2
    update_report(out, "layers", {
        "unit": "us per call", "sets": 2 * half, "repeat": LAYER_REPEAT,
        "orientations": [f"sets 1-{half}: parent started first",
                         f"sets {half + 1}-{2 * half}: change started first"], **layers})
    print("| layer | parent min [spread] | change min [spread] | change "
          "| sets won, parent first / change first |")
    print("|---|---|---|---|---|")
    for name, p in layers["parent"].items():
        c = layers["change"][name]
        won = [b < a for a, b in zip(p["sets"], c["sets"])]
        print(f"| {name} | {p['min']:.4g} [{p['spread_pct']:.1f} %] | "
              f"{c['min']:.4g} [{c['spread_pct']:.1f} %] | "
              f"{100.0 * (c['min'] - p['min']) / p['min']:+.1f} % | "
              f"{sum(won[:half])}/{half} / {sum(won[half:])}/{half} |")


def _bench_number(path: str) -> int | None:
    match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
    return int(match.group(1)) if match else None


def previous_bench(out: str) -> str | None:
    """The newest BENCH_<n>.json beside out that is older than out, or None."""
    directory = os.path.dirname(os.path.abspath(out))
    own = _bench_number(out)
    found = [(n, name) for name in os.listdir(directory)
             if (n := _bench_number(name)) is not None and (own is None or n < own)]
    return os.path.join(directory, max(found)[1]) if found else None


def print_diff(previous_path: str, report: dict) -> None:
    """Each change median of report against the same workload, seed and metric before."""
    with open(previous_path) as fh:
        previous = json.load(fh)
    before = {(r["workload"], r["seed"], name): m["change"]["median"]
              for r in previous["results"] for name, m in r["metrics"].items()}
    print(f"\nChange medians against {os.path.basename(previous_path)}:")
    print("| workload | seed | metric | before | now | change |")
    print("|---|---|---|---|---|---|")
    for r in report["results"]:
        for name, m in r["metrics"].items():
            old = before.get((r["workload"], r["seed"], name))
            if old is not None:
                now = m["change"]["median"]
                print(f"| {r['workload']} | {r['seed']} | {name} | {old:.4g} | {now:.4g} | "
                      f"{100.0 * (now - old) / old:+.1f} % |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workloads to run (default: all in BENCHMARK.json)")
    parser.add_argument("--out", default="BENCH.json", help="output JSON file")
    parser.add_argument("--counts", action="store_true",
                        help="count profiled calls per step instead of timing (see above)")
    parser.add_argument("--layers", action="store_true",
                        help="time the stage layers instead of perfbench runs (see above)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    if args.counts:
        write_counts(sides, args.out)
    if args.layers:
        write_layers(sides, args.out)
    if args.counts or args.layers:
        return 0

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    results = []
    for seed in args.seed:
        for workload in workloads:
            reports = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    reports[side].append(run_once(sides[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
            results.append({
                "workload": workload, "seed": seed,
                "failed": {side: sum(r["failed"] for r in reports[side]) for side in reports},
                "metrics": compare(reports["parent"], reports["change"], metrics),
            })

    report = {
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()},
        "pairs": args.pairs, "seconds": args.seconds, "seeds": args.seed,
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print("| workload | seed | metric | parent median [Q1, Q3] | change median | change | won |")
    print("|---|---|---|---|---|---|---|")
    for r in results:
        for name, m in r["metrics"].items():
            p, c = m["parent"], m["change"]
            print(f"| {r['workload']} | {r['seed']} | {name} | {p['median']:.4g} "
                  f"[{p['q1']:.4g}, {p['q3']:.4g}] | {c['median']:.4g} | "
                  f"{m['change_pct']:+.1f} % | {m['pairs_won']}/{m['pairs']} |")
    previous = previous_bench(args.out)
    if previous is not None:
        print_diff(previous, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
