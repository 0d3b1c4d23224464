"""The benchmark tracer's hook points exist in the package and see every CSV byte.

perfbench/tracing.py wraps every `module.function` named in its LAYERS by
`getattr`, so deleting one of them breaks every traced benchmark run.  This
test reads LAYERS from the file (perfbench itself is not imported) and
resolves each name the way the tracer does.
"""
import ast
import importlib
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS in {TRACING}")


@pytest.mark.parametrize("layer", traced_layers())
def test_traced_layer_resolves(layer):
    module, name = layer.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"himcf.{module}"), name, None)), layer


@pytest.mark.parametrize("argv, csv_name", [
    (["curve", "--solver", "lagrangian", "--vertices", "32", "--t-end", "0.05"], "curve.csv"),
    # 10001 rows: the table is written in several pieces.
    (["radial", "--dt", "2e-4"], "radial.csv"),
    (["containment"], "containment.csv"),
])
def test_every_csv_byte_passes_through_csv_text(argv, csv_name, tmp_path, monkeypatch):
    """perfbench's output.csv_text.bytes sums len(result.encode()) over csv_text calls.

    The counter replaces every himcf binding of csv_text, as the tracer does;
    the lengths it sees must add up to the file the run wrote.
    """
    import himcf.cli
    import himcf.output
    original = himcf.output.csv_text
    lengths = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        lengths.append(len(result.encode()))
        return result

    for module in [m for name, m in sys.modules.items() if name.startswith("himcf")]:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
    out = tmp_path / "out"
    assert himcf.cli.main([*argv, "--out-dir", str(out)]) == 0
    assert len(lengths) >= 2          # the header line, then the blocks
    assert sum(lengths) == (out / csv_name).stat().st_size


def test_a_support_run_takes_its_cfl_bound_from_the_traced_name(monkeypatch):
    """perfbench's flow.cfl_bound.calls counts calls through the module attribute."""
    import numpy as np

    import himcf.flow
    original = himcf.flow.cfl_bound
    calls = []

    def counted(member):
        calls.append(member)
        return original(member)

    monkeypatch.setattr(himcf.flow, "cfl_bound", counted)
    traj = himcf.flow.run_support_flow(np.ones(64), np.full(64, 0.5),
                                       himcf.flow.FlowConfig(N=64, t_end=0.2))
    assert traj.termination.kind == "HorizonReached"
    assert len(calls) >= len(traj.times) - 1 > 0
