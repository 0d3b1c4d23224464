import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def bench():
    """scripts/bench.py as a module, loaded from its file (scripts/ is no package)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
