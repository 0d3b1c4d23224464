"""Spans and counts around calls into himcf's layers, from outside src/.

himcf modules bind imported functions directly (`from .grids import
periodic_derivative`), so patching the defining module is not enough: the
tracer replaces every binding of a traced function in every loaded himcf
module with one wrapper and puts the originals back on uninstall.

Each wrapped call is a span: name, start, end, parent span and the operation
(request) it belongs to.  A span's self time is its duration minus the time
covered by its child spans.  Aggregates are kept per round; the individual
spans of the first traced round are kept in memory and written out when the
run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# Traced functions, "<module>.<function>" relative to the himcf package.
LAYERS = (
    "grids.periodic_derivative",
    "flow.run_support_flow",
    "flow.step_support",
    "flow.cfl_bound",
    "flow.validate_support_state",
    "flow.bisect_to_violation",
    "monitors.check_containment",
    "lagrangian.run_lagrangian_flow",
    "lagrangian.step_lagrangian",
    "lagrangian.lagrangian_cfl_bound",
    "curves.discrete_curvature",
    "curves.discrete_tangent_normal",
    "curves.resample_equal_arclength",
    "curves.polygon_hausdorff",
    "support.support_to_curve",
    "output.csv_text",
    "output.svg_text",
    "output.json_text",
    "output.write_text_atomic",
    "cli.main",
)

SPAN_FIELDS = ("id", "parent", "request", "name", "start_ns", "end_ns")


# Layers reported with .calls and .self_s.
COUNTED = (
    "grids.periodic_derivative",
    "flow.step_support",
    "flow.cfl_bound",
    "flow.validate_support_state",
    "flow.bisect_to_violation",
    "monitors.check_containment",
    "lagrangian.step_lagrangian",
    "lagrangian.lagrangian_cfl_bound",
    "curves.discrete_curvature",
    "curves.discrete_tangent_normal",
    "curves.resample_equal_arclength",
    "curves.polygon_hausdorff",
)


def _per_layer_units() -> dict:
    units = {}
    for layer in COUNTED:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["grids.periodic_derivative.points"] = "count"
    for n in (64, 128, 256, 512):
        units[f"flow.step_support.us_per_call.N{n}"] = "us"
    units["flow.step_support.useful_ratio"] = "ratio"
    units["flow.snapshots.retained"] = "count"
    units["lagrangian.run_lagrangian_flow.s"] = "s"
    units["support.support_to_curve.self_s"] = "s"
    for name in ("csv_text", "svg_text", "json_text", "write_text_atomic"):
        units[f"output.{name}.self_s"] = "s"
    for name in ("csv_text", "svg_text"):
        units[f"output.{name}.bytes"] = "bytes"
    units["cli.main.s"] = "s"
    units["import.scipy_s"] = "s"
    units["import.himcf_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


# Per-layer metric name -> unit, in report order.
PER_LAYER = _per_layer_units()


class Tracer:
    def __init__(self):
        self.stack = []                 # [name, child_ns, span_id] per open span
        self.request = -1
        self.calls = Counter()
        self.incl_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.spans = None               # list of span tuples while recording
        self._next_id = 0
        self._patched = []              # (module, attribute, original)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "himcf" or key.startswith("himcf.")]
        for layer in LAYERS:
            module_name, attr = layer.split(".")
            original = getattr(importlib.import_module(f"himcf.{module_name}"), attr)
            wrapper = self._wrap(layer, original, _OBSERVERS.get(layer))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -------------------------------------------------------------- spans

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][2] if stack else -1
            frame = [name, 0, span_id]
            if observe is not None:
                observe(tracer, args)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.incl_ns[name] += duration
                tracer.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if tracer.spans is not None:
                    tracer.spans.append((span_id, parent, tracer.request, name,
                                         start, end))
            if observe is not None:
                observe(tracer, args, result, duration)
            return result

        return traced

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def innermost(self, names) -> str | None:
        for frame in reversed(self.stack):
            if frame[0] in names:
                return frame[0]
        return None

    def take_round(self) -> dict:
        """Aggregates since the last call, then reset them."""
        out = {"calls": dict(self.calls), "incl_ns": dict(self.incl_ns),
               "self_ns": dict(self.self_ns), "counts": dict(self.counts)}
        for c in (self.calls, self.incl_ns, self.self_ns, self.counts):
            c.clear()
        return out


# Extra counts taken at the same boundaries.  Each observer is called once
# before the wrapped call (args only) and once after it returns (args,
# result, duration).

def _observe_derivative(tracer, args, result=None, duration=None):
    if duration is not None:
        tracer.counts["grids.periodic_derivative.points"] += len(args[0])


_RUNNERS = ("flow.run_support_flow", "lagrangian.run_lagrangian_flow")


def _observe_step(tracer, args, result=None, duration=None):
    if duration is None:
        if tracer.inside("flow.bisect_to_violation"):
            tracer.counts["flow.step_support.bisect_attempts"] += 1
        return
    n = args[0].grid.N
    tracer.counts[f"flow.step_support.ns.N{n}"] += duration
    tracer.counts[f"flow.step_support.calls.N{n}"] += 1


def _observe_bisect(tracer, args, result=None, duration=None):
    # The support solver's one rejected trial step precedes each of its
    # bisections.
    if duration is None and tracer.innermost(_RUNNERS) == "flow.run_support_flow":
        tracer.counts["flow.step_support.rejected_trials"] += 1


def _observe_support_run(tracer, args, result=None, duration=None):
    if duration is not None:
        tracer.counts["flow.snapshots.retained"] += len(result.snapshots)


def _observe_text(name):
    def observe(tracer, args, result=None, duration=None):
        if duration is not None:
            tracer.counts[f"{name}.bytes"] += len(result.encode())
    return observe


_OBSERVERS = {
    "grids.periodic_derivative": _observe_derivative,
    "flow.step_support": _observe_step,
    "flow.bisect_to_violation": _observe_bisect,
    "flow.run_support_flow": _observe_support_run,
    "output.csv_text": _observe_text("output.csv_text"),
    "output.svg_text": _observe_text("output.svg_text"),
}


def round_metrics(agg: dict) -> dict:
    """Per-layer metric values of one traced round."""
    calls = defaultdict(int, agg["calls"])
    incl = defaultdict(int, agg["incl_ns"])
    self_ns = defaultdict(int, agg["self_ns"])
    counts = defaultdict(int, agg["counts"])
    m = {}
    for layer in COUNTED:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_ns[layer] * 1e-9
    m["grids.periodic_derivative.points"] = counts["grids.periodic_derivative.points"]
    for n in (64, 128, 256, 512):
        k = counts[f"flow.step_support.calls.N{n}"]
        m[f"flow.step_support.us_per_call.N{n}"] = (
            counts[f"flow.step_support.ns.N{n}"] * 1e-3 / k if k else 0.0)
    attempts = calls["flow.step_support"]
    wasted = counts["flow.step_support.bisect_attempts"] + counts["flow.step_support.rejected_trials"]
    m["flow.step_support.useful_ratio"] = (attempts - wasted) / attempts if attempts else 0.0
    m["flow.snapshots.retained"] = counts["flow.snapshots.retained"]
    m["lagrangian.run_lagrangian_flow.s"] = incl["lagrangian.run_lagrangian_flow"] * 1e-9
    m["support.support_to_curve.self_s"] = self_ns["support.support_to_curve"] * 1e-9
    for name in ("csv_text", "svg_text", "json_text", "write_text_atomic"):
        m[f"output.{name}.self_s"] = self_ns[f"output.{name}"] * 1e-9
    for name in ("csv_text", "svg_text"):
        m[f"output.{name}.bytes"] = counts[f"output.{name}.bytes"]
    m["cli.main.s"] = incl["cli.main"] * 1e-9
    return m
