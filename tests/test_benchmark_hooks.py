"""The benchmark tracer's hook points exist in the package.

perfbench/tracing.py wraps every `module.function` named in its LAYERS by
`getattr`, so deleting one of them breaks every traced benchmark run.  This
test reads LAYERS from the file (perfbench itself is not imported) and
resolves each name the way the tracer does.
"""
import ast
import importlib
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
