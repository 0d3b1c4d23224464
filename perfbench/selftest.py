#!/usr/bin/env python3
"""Fast self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

For each workload it runs a reduced operation list once untraced and once
traced, and checks that
  * the reported metric names and units are exactly those in BENCHMARK.json,
  * every operation passes its checks and every end-to-end value is > 0,
  * a deliberately corrupted output is counted as a failed operation,
  * the tracer restores every function it wrapped.
Exit status 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import sys

import run

SEED = 7


class SelfTestFailed(Exception):
    pass


def expect(ok, message: str) -> None:
    if not ok:
        raise SelfTestFailed(message)


def reduced(workload: str, ops):
    """A few operations that still touch every layer the workload exercises."""
    import workloads

    if workload == "spectral-adaptive":
        firsts = {}
        for op in ops:
            firsts.setdefault(op.case["regime"], op)
        return list(firsts.values())
    if workload == "containment-fixed-dt":
        return [ops[0]] + [op for op in ops if isinstance(op, workloads.ContainmentScenario)
                           and op.scenario == "circle-in-circle"]
    pair = next(op for op in ops if getattr(op, "case", {}).get("M") == 256)
    return [pair, next(op for op in ops if isinstance(op, workloads.EllipseBothSolvers))]


def _negate_csv_cell(path: str, column: int) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[column] = "-1.0"
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def corrupt(op, output):
    """Damage one value of an operation's output the way a solver bug would."""
    import workloads

    if isinstance(op, workloads.RefinementSweep):
        traj = output[-1]
        last = traj.snapshots[-1]
        bad = dataclasses.replace(last, S=last.S * (1.0 + 1e-3))
        return output[:-1] + [dataclasses.replace(traj, snapshots=traj.snapshots[:-1] + (bad,))]
    if isinstance(op, workloads.ContainmentPair):
        outer, inner, record = output
        return inner, outer, record
    if isinstance(op, workloads.ContainmentScenario):
        _negate_csv_cell(os.path.join(op.out_dir, "containment.csv"), 1)
    elif isinstance(op, workloads.CrossSolverPair):
        _negate_csv_cell(os.path.join(op.dirs[0], "curve.csv"), 2)
    else:
        _negate_csv_cell(os.path.join(op.out_dir, "curve.csv"), 2)
    return output


def check_names(spec: dict, section: str, got: dict) -> None:
    want = {m["name"]: m["unit"] for m in spec[section]}
    expect(set(got) == set(want),
           f"{section}: reported {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, unit in got.items():
        expect(unit == want[name], f"{section}: {name} unit {unit} != {want[name]}")


def test_workload(spec: dict, workload: str) -> None:
    import himcf.flow
    import workloads
    from tracing import PER_LAYER

    out_root = os.path.join(run.OUT_DIR, "selftest")
    shutil.rmtree(out_root, ignore_errors=True)
    ops = reduced(workload, workloads.build(workload, SEED, out_root))
    runner = himcf.flow.run_support_flow

    plain = run.measure(ops, 0.0, trace=False)
    expect(not plain["failures"], f"clean run failed: {plain['failures'][:3]}")
    setup = run.cold_starts(workload, SEED, 1, importtime=False)
    e2e = run.end_to_end_metrics(plain, setup)
    check_names(spec, "end_to_end", {k: run.END_TO_END[k] for k in e2e})
    expect(all(math.isfinite(v) and v > 0.0 for v in e2e.values()),
           f"end-to-end values must be positive: {e2e}")

    traced = run.measure(ops, 0.0, trace=True)
    expect(not traced["failures"], f"traced run failed: {traced['failures'][:3]}")
    expect(himcf.flow.run_support_flow is runner, "tracer left a wrapper installed")
    setup = run.cold_starts(workload, SEED, 1, importtime=True)
    layers = run.per_layer_metrics(traced, setup)
    check_names(spec, "per_layer", {k: PER_LAYER[k] for k in layers})
    expect(layers["grids.periodic_derivative.calls"] > 0, "no spectral derivative traced")
    spans = traced["spans"]
    expect(spans and any(s[1] >= 0 for s in spans), "no nested spans recorded")

    fresh = reduced(workload, workloads.build(workload, SEED, out_root))
    bad = run.measure(fresh[:1], 0.0, trace=False, tamper=corrupt)
    expect(len(bad["failures"]) == bad["attempted"] > 0,
           f"corrupted output counted {len(bad['failures'])} of {bad['attempted']} as failed")
    shutil.rmtree(out_root, ignore_errors=True)
    print(f"PASS {workload}: {len(ops)} operations, end-to-end and per-layer names "
          f"match, corrupted output counted as failed ({bad['attempted']} of "
          f"{bad['attempted']})")


def main() -> int:
    run.load_program()
    import inputs

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = 0
    try:
        expect([w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS),
               "BENCHMARK.json workloads differ from inputs.WORKLOADS")
    except SelfTestFailed as exc:
        print(f"FAIL workloads: {exc}")
        failures += 1
    for workload in inputs.WORKLOADS:
        try:
            test_workload(spec, workload)
        except SelfTestFailed as exc:
            print(f"FAIL {workload}: {exc}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
