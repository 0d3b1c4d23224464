"""Every `scripts/bench.py --counts` row against a ceiling: added per-step work fails Tier-1.

sys.setprofile counts are exact for one Python minor version and numpy
version (the instrument's repeatability is tested in test_flow.py), so the
ceilings are recorded per (Python minor, numpy) key and the check skips on
any other.  A change that lowers a row lowers its ceiling with it; one that
raises a row states the raise and its reason.
"""
import gc
import sys

import numpy as np
import pytest

ADAPTIVE = "adaptive support run 2:1 ellipse N=128 to t=0.5, one call"
SWEEP = "step_supports calls of one spectral-adaptive pass, seed 1"

CEILINGS = {
    ("3.11", "2.4.6"): {
        **{f"support N={N} B=1": 35 for N in (64, 128, 256, 512)},
        **{f"support N={N} B=2": 48 for N in (64, 128, 256, 512)},
        "lagrangian M=256": 125,
        "resample_equal_arclength M=256, one call": 154,
        "curve_to_support M=512 N=128, one call": 127,
        "curvature_evolution_residual verify run, one call": 69,
        "cli curve --both-solvers README ellipse, one call": 20426,
        ADAPTIVE: 975,
        SWEEP: 4623,
    },
}


@pytest.fixture(scope="module")
def counts(bench):
    # call_counts collects garbage before each profiled call; frozen, the
    # objects earlier tests left are not traversed again each time.
    gc.freeze()
    try:
        return bench.call_counts()
    finally:
        gc.unfreeze()


def test_every_row_is_within_its_ceiling(counts):
    key = (f"{sys.version_info.major}.{sys.version_info.minor}", np.__version__)
    if key not in CEILINGS:
        pytest.skip(f"ceilings are recorded for (Python, numpy) {sorted(CEILINGS)}, not {key}")
    ceilings = CEILINGS[key]
    assert set(counts) == set(ceilings)
    over = {name: (row["total"], ceilings[name]) for name, row in counts.items()
            if row["total"] > ceilings[name]}
    assert not over, f"rows above their ceilings (calls, ceiling): {over}"


def test_the_adaptive_run_keeps_its_step_schedule(counts):
    # Its CFL safety 0.6 and every step size: a faster step must not take fewer.
    assert counts[ADAPTIVE]["steps"] == 25
