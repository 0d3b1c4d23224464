#!/usr/bin/env python3
"""himcf benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; himcf is imported from ./src.
Workloads: spectral-adaptive, containment-fixed-dt, cli-cross-solver (see
README.md next to this file).  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics of a run that
alternates traced and untraced rounds, plus the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER, SPAN_FIELDS, Tracer, round_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")
OUT_DIR = os.path.join(HERE, "_out")
RESULTS_DIR = os.path.join(HERE, "_results")

SETUP_SAMPLES = 7            # cold starts per run; setup_s is their median
IMPORT_SAMPLES = 3           # -X importtime cold starts in a traced run
PROBE_TIMEOUT_S = 60

# name -> unit; BENCHMARK.json lists the same names (selftest.py checks it).
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import himcf from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "himcf", "__init__.py")):
        raise SystemExit(f"benchmark: no himcf sources under {SRC}")
    sys.path.insert(0, SRC)
    import himcf
    if not os.path.abspath(himcf.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported himcf from {himcf.__file__}, not {SRC}")
    return himcf


def _scipy_import_s(importtime_log: str) -> float:
    """Sum of the self times of scipy modules in a -X importtime log."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        module = fields[2].strip()
        if module == "scipy" or module.startswith("scipy."):
            total_us += int(fields[0])
    return total_us * 1e-6


def cold_starts(workload: str, seed: int, samples: int, importtime: bool) -> list[dict]:
    """Start the probe in fresh interpreters; time each from the outside."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        PROBE, "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed:\n{proc.stderr}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        info["wall_s"] = wall
        if importtime:
            info["scipy_s"] = _scipy_import_s(proc.stderr)
        out.append(info)
    return out


def run_round(ops, tracer=None, tamper=None):
    """Run every operation once; return op wall times and failures.

    An operation fails when it raises or when its output check fails.
    tamper(op, output) -> output lets the self-test corrupt an output
    between the timed call and its check.
    """
    times, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(time.perf_counter() - t0)
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        if tamper is not None:
            output = tamper(op, output)
        try:
            op.check(output)
        except Exception as exc:
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return times, failures


def measure(ops, seconds: float, trace: bool, tamper=None) -> dict:
    """A warm-up round, then whole rounds until `seconds` have passed.

    In a traced run rounds alternate traced / untraced, starting traced, and
    at least one of each runs.
    """
    _, failures = run_round(ops, tamper=tamper)
    attempted = len(ops)
    tracer = Tracer() if trace else None
    untraced, traced, layers, spans = [], [], [], None
    start = time.perf_counter()
    while (not untraced and not traced) or time.perf_counter() - start < seconds \
            or (trace and not (untraced and traced)):
        use_trace = trace and len(traced) <= len(untraced)
        if use_trace:
            tracer.spans = [] if spans is None else None
            tracer.install()
        try:
            times, fails = run_round(ops, tracer if use_trace else None, tamper)
        finally:
            if use_trace:
                tracer.uninstall()
        attempted += len(ops)
        failures += fails
        if use_trace:
            traced.append(times)
            layers.append(round_metrics(tracer.take_round()))
            if spans is None:
                spans = tracer.spans
        else:
            untraced.append(times)
    return {"attempted": attempted, "failures": failures, "untraced": untraced,
            "traced": traced, "layers": layers, "spans": spans}


def op_medians(rounds: list[list[float]]) -> list[float]:
    """Each operation's median wall time over the rounds.

    A burst of load from outside slows a few operations of one round; the
    per-operation median drops it where a median of round totals would not.
    """
    return [statistics.median(ts) for ts in zip(*rounds)]


def list_wall_s(rounds: list[list[float]]) -> float:
    """Wall time of the operation list: the sum of per-operation medians."""
    return sum(op_medians(rounds))


def end_to_end_metrics(result: dict, setup: list[dict]) -> dict:
    rounds = result["untraced"]
    return {
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "wall_s": list_wall_s(rounds),
        "op_p50_s": statistics.median(op_medians(rounds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(result: dict, setup: list[dict]) -> dict:
    names = result["layers"][0].keys()
    m = {k: statistics.median_low(r[k] for r in result["layers"]) for k in names}
    m["import.scipy_s"] = statistics.median(s["scipy_s"] for s in setup)
    m["import.himcf_s"] = statistics.median(s["import_s"] for s in setup)
    plain = list_wall_s(result["untraced"])
    traced = list_wall_s(result["traced"])
    m["trace.overhead_s"] = traced - plain
    m["trace.overhead_ratio"] = (traced - plain) / plain
    return m


def write_trace(path: str, workload: str, seed: int, ops, result: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "requests": [op.name for op in ops],
                   "rounds": result["layers"],
                   "span_fields": list(SPAN_FIELDS),
                   "spans": result["spans"]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import inputs
    import workloads

    if args.workload not in inputs.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"valid: {', '.join(inputs.WORKLOADS)}")
    trace = bool(args.trace)
    shutil.rmtree(OUT_DIR, ignore_errors=True)

    setup = cold_starts(args.workload, args.seed,
                        IMPORT_SAMPLES if trace else SETUP_SAMPLES, importtime=trace)
    expected = inputs.digest(inputs.generate(args.workload, args.seed))
    deterministic = all(s["digest"] == expected for s in setup)

    ops = workloads.build(args.workload, args.seed, OUT_DIR)
    result = measure(ops, args.seconds, trace)

    if trace:
        values = per_layer_metrics(result, setup)
        units = PER_LAYER
        write_trace(os.path.join(RESULTS_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                    args.workload, args.seed, ops, result)
    else:
        values = end_to_end_metrics(result, setup)
        units = END_TO_END

    for failure in result["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not deterministic:
        print("set-up probes generated different inputs", file=sys.stderr)
    failed = len(result["failures"])
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations "
          f"attempted, {failed} failed, {len(result['untraced'])} untraced and "
          f"{len(result['traced'])} traced rounds")
    for name in units:
        print(f"  {name} = {values[name]!r} {units[name]}")
    report = {"correct": deterministic, "attempted": result["attempted"], "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"result-{args.workload}-seed{args.seed}"
                                        f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
