#!/usr/bin/env python3
"""A/B benchmark of two source checkouts with perfbench, in alternating pairs.

    python3 scripts/bench.py --parent DIR --change DIR --pairs 10 --seconds 20 \
        --seed 1 7 --out BENCH.json

    python3 scripts/bench.py --parent DIR --change DIR --counts --out BENCH.json

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
run at COUNT_M vertices.  The counts are exact for one Python and numpy
version.  They go under "counts" in --out, next to what the file already
holds (run the timed pairs first), with each checkout's src_lines (the line
count of src/himcf/*.py), and a table of both sides is printed.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from functools import partial

import numpy as np

COUNT_N = (64, 128, 256, 512)
COUNT_B = (1, 2)
COUNT_M = 256
COUNT_STEPS = (10, 30)    # two run lengths; their difference is the per-step work


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
    """({"python": n, "c": n}, fn()): the calls sys.setprofile sees while fn runs."""
    counts = {"python": 0, "c": 0}

    def profile(frame, event, arg):
        if event == "call":
            counts["python"] += 1
        elif event == "c_call":
            counts["c"] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
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


def call_counts() -> dict:
    """Per-step profiled calls of the himcf on sys.path (see --counts)."""
    from himcf.flow import FlowConfig, run_support_flows
    from himcf.grids import AngleGrid
    from himcf.lagrangian import run_lagrangian_flow
    from himcf.presets import ellipse_curve, ellipse_support

    def support_run(N, B, steps, dt=1e-3):
        s = ellipse_support(AngleGrid(N), 2.0, 1.0, speed=0.5)
        return run_support_flows([s.S, 1.5 * s.S][:B], [s.V, s.V][:B],
                                 FlowConfig(N=N, dt=dt, t_end=steps * dt))

    def lagrangian_run(steps, dt=1e-4):
        curve = ellipse_curve(COUNT_M, 2.0, 1.0, speed=0.5)
        return [run_lagrangian_flow(curve, 0.5, FlowConfig(dt=dt, t_end=steps * dt))]

    counts = {f"support N={N} B={B}": per_step_calls(partial(support_run, N, B))
              for N in COUNT_N for B in COUNT_B}
    counts[f"lagrangian M={COUNT_M}"] = per_step_calls(lagrangian_run)
    return counts


def side_counts(checkout: str) -> dict:
    """call_counts() of the himcf under checkout/src, in a fresh interpreter."""
    scripts = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(checkout, "src"), scripts]))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, bench; print(json.dumps(bench.call_counts()))"],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def src_lines(checkout: str) -> int:
    """Lines of checkout/src/himcf/*.py, as `cat src/himcf/*.py | wc -l` counts them."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "himcf", "*.py")):
        with open(path) as fh:
            total += fh.read().count("\n")
    return total


def write_counts(sides: dict, out: str) -> None:
    """Both sides' call_counts and src_lines under "counts" in out, keeping its other keys.

    A table of both sides is printed.
    """
    counts = {side: side_counts(path) for side, path in sides.items()}
    lines = {side: src_lines(path) for side, path in sides.items()}
    report = {}
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
    report["counts"] = {"python": platform.python_version(), "numpy": np.__version__,
                        "unit": "profiled calls per accepted step", **counts,
                        "src_lines": lines}
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print("| run | parent C + Python = total | change C + Python = total | change |")
    print("|---|---|---|---|")
    for name, p in counts["parent"].items():
        c = counts["change"][name]
        print(f"| {name} | {p['c']:g} + {p['python']:g} = {p['total']:g} | "
              f"{c['c']:g} + {c['python']:g} = {c['total']:g} | "
              f"{100.0 * (c['total'] - p['total']) / p['total']:+.1f} % |")
    p, c = lines["parent"], lines["change"]
    print(f"| src lines | {p} | {c} | {100.0 * (c - p) / p:+.1f} % |")


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
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if args.counts:
        write_counts(sides, args.out)
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
