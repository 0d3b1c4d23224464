"""Seeded inputs of the three workloads.

Only numpy is used here, so a fresh interpreter can time `import himcf`
followed by input generation (the setup_s metric).  The program under test
only ever receives what these functions return: sample arrays for the
library calls, argv lists for the CLI calls.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from oracles import curvature_radius, grid

WORKLOADS = ("spectral-adaptive", "containment-fixed-dt", "cli-cross-solver")

SPECTRAL_N = (64, 128, 256, 512)
SPECTRAL_T_END = 1.0
SPECTRAL_REGIMES = ("expanding", "shrinking", "indeterminate")
SPECTRAL_CURVES_PER_REGIME = 5       # seeded series curves per speed regime

CONTAIN_N = 128
CONTAIN_DT = 5e-3
CONTAIN_T_END = 1.0
CONTAIN_RECORD_EVERY = 5
CONTAIN_PAIRS = 6
CONTAIN_SCENARIOS = ("circle-in-circle", "ellipse-in-circle")

CLI_N = 128
CLI_M = (256,) * 5 + (512,) * 3     # Lagrangian vertex count of each seeded operation
CLI_T_END = 0.3
CLI_ELLIPSE = 2                      # README --both-solvers calls per round
ELLIPSE_T_END = 0.5
ELLIPSE_ARGV = ["curve", "--preset", "ellipse", "--a", "2", "--b", "1",
                "--speed", "0.5", "--t-end", repr(ELLIPSE_T_END), "--both-solvers"]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, WORKLOADS.index(workload)])


def _series_terms(rng, c0: float, modes, amplitude: float):
    """theta -> c0 + sum a_j cos(j theta + phi_j), sum (j^2 - 1)|a_j| = amplitude.

    The curvature radius S'' + S then stays within c0 +- amplitude, so the
    curve is strictly convex whenever amplitude < c0.
    """
    raw = rng.uniform(0.2, 1.0, len(modes))
    weights = np.array([j * j - 1.0 for j in modes])
    amps = raw * amplitude / float(np.sum(raw * weights))
    phases = rng.uniform(0.0, 2.0 * math.pi, len(modes))

    def evaluate(theta):
        out = np.full(theta.shape, c0)
        for j, a, phi in zip(modes, amps, phases):
            out += a * np.cos(j * theta + phi)
        return out
    return evaluate


def _speed_terms(rng, f0: float, b: float):
    """theta -> f0 + b cos(m theta + psi), m in {1, 2}."""
    m = int(rng.integers(1, 3))
    psi = rng.uniform(0.0, 2.0 * math.pi)
    return lambda theta: f0 + b * np.cos(m * theta + psi)


def spectral_adaptive(seed: int) -> list[dict]:
    """Refinement sweeps: each seeded curve is sampled at every N in SPECTRAL_N.

    SPECTRAL_CURVES_PER_REGIME convex low-mode curves on the unit circle per
    speed regime, plus one expanding and one collapsing exact circle.  Speeds
    are f0 + b cos(m theta + psi), placed by the curvature-radius extremes
    rho_min, rho_max of the curve (taken on the finest grid):
      expanding      f_min in [0.25, 0.8]                       (1/zeta + f_min > 0)
      shrinking      f_max = -coth(T) rho_max, T in [0.3, 0.6]  (1/delta + f_max < 0)
      indeterminate  f_min <= -rho_min - 0.05, f_max >= -rho_max + 0.05
    """
    rng = _rng("spectral-adaptive", seed)
    fine = grid(max(SPECTRAL_N))
    cases = []
    for regime in SPECTRAL_REGIMES:
        for _ in range(SPECTRAL_CURVES_PER_REGIME):
            shape = _series_terms(rng, 1.0, (2, 3, 4), rng.uniform(0.2, 0.6))
            rho = curvature_radius(shape(fine))
            r_min, r_max = float(rho.min()), float(rho.max())
            b = rng.uniform(0.05, 0.15)
            if regime == "expanding":
                f0 = rng.uniform(0.25, 0.8) + b
            elif regime == "shrinking":
                f0 = -r_max / math.tanh(rng.uniform(0.3, 0.6)) - b
            else:
                f0 = rng.uniform(-r_max + 0.05 - b, -r_min - 0.05 + b)
            speed = _speed_terms(rng, f0, b)
            cases.append({"kind": "series", "regime": regime,
                          "runs": [{"N": n, "S0": shape(grid(n)), "V0": speed(grid(n))}
                                   for n in SPECTRAL_N]})
    r0 = rng.uniform(0.5, 2.0)
    expanding = (r0, rng.uniform(-0.5, 1.0) * r0)
    r0 = rng.uniform(0.5, 2.0)
    collapsing = (r0, -r0 / math.tanh(rng.uniform(0.3, 0.6)))
    for r0, r1 in (expanding, collapsing):
        cases.append({"kind": "circle", "regime": "circle", "r0": r0, "r1": r1,
                      "runs": [{"N": n, "S0": np.full(n, r0), "V0": np.full(n, r1)}
                               for n in SPECTRAL_N]})
    return cases


def containment_fixed_dt(seed: int) -> dict:
    """Ordered pairs S_in <= S_out, V_in <= V_out on one fixed-dt schedule.

    S_out = S_in + g with g = g0 + b1 cos(theta - phi) + sum_{j=2,3} g_j
    cos(j theta + phi_j) >= 0.2 g0 pointwise (the mode-1 term offsets the
    outer curve), V_out = V_in + h0 + h1 cos(theta - chi) with h0 >= |h1|.
    Both curves satisfy 1/zeta + f_min > 0, so both runs reach t_end and
    the fixed dt stays inside the CFL bound.
    """
    rng = _rng("containment-fixed-dt", seed)
    theta = grid(CONTAIN_N)
    pairs = []
    for _ in range(CONTAIN_PAIRS):
        S_in = _series_terms(rng, 1.0, (2, 3), rng.uniform(0.1, 0.5))(theta)
        g0 = rng.uniform(0.05, 0.5)
        split = rng.dirichlet([1.0, 1.0, 1.0]) * 0.8 * g0
        g = (g0 + split[0] * np.cos(theta - rng.uniform(0.0, 2.0 * math.pi))
             + split[1] * np.cos(2 * theta + rng.uniform(0.0, 2.0 * math.pi)) / 3.0
             + split[2] * np.cos(3 * theta + rng.uniform(0.0, 2.0 * math.pi)) / 8.0)
        b = rng.uniform(0.0, 0.1)
        V_in = _speed_terms(rng, rng.uniform(0.25, 0.6) + b, b)(theta)
        h0 = rng.uniform(0.0, 0.3)
        h = h0 + rng.uniform(0.0, 1.0) * h0 * np.cos(theta - rng.uniform(0.0, 2.0 * math.pi))
        pairs.append({"S_in": S_in, "V_in": V_in, "S_out": S_in + g,
                      "V_out": V_in + h})
    return {"pairs": pairs, "scenarios": list(CONTAIN_SCENARIOS)}


def cli_cross_solver(seed: int) -> list[dict]:
    """`curve` argv pairs on seeded fourier presets with expanding speeds.

    Coefficients c0 in [0.9, 1.1], c1 in [-0.1, 0.1] (an offset), c2, c3 with
    3|c2| + 8|c3| in [0.25, 0.35] c0.  Speeds are a constant v0 in [0.5, 0.7]
    or the cosine list "v0,0,+-0.2 v0", alternating.  Operation i uses
    M = CLI_M[i], so each round holds the same mix.
    """
    rng = _rng("cli-cross-solver", seed)
    ops = []
    for i, M in enumerate(CLI_M):
        c0 = rng.uniform(0.9, 1.1)
        share = rng.uniform(0.25, 0.35) * c0
        w = rng.dirichlet([1.0, 1.0])
        c2 = share * w[0] / 3.0 * rng.choice([-1.0, 1.0])
        c3 = share * w[1] / 8.0 * rng.choice([-1.0, 1.0])
        coeffs = [c0, rng.uniform(-0.1, 0.1), c2, c3]
        v0 = rng.uniform(0.5, 0.7)
        if i % 2 == 0:
            speed = [v0, 0.0, 0.2 * v0 * rng.choice([-1.0, 1.0])]
        else:
            speed = [v0]
        common = ["curve", "--preset", "fourier",
                  "--coeffs", ",".join(repr(float(c)) for c in coeffs),
                  "--speed", ",".join(repr(float(v)) for v in speed),
                  "--t-end", repr(CLI_T_END)]
        ops.append({"kind": "fourier", "coeffs": coeffs, "speed": speed, "M": M,
                    "support": common + ["--solver", "support", "--N", str(CLI_N)],
                    "lagrangian": common + ["--solver", "lagrangian",
                                            "--vertices", str(M)]})
    for _ in range(CLI_ELLIPSE):
        ops.append({"kind": "ellipse", "argv": list(ELLIPSE_ARGV)})
    return ops


GENERATORS = {
    "spectral-adaptive": spectral_adaptive,
    "containment-fixed-dt": containment_fixed_dt,
    "cli-cross-solver": cli_cross_solver,
}


def generate(workload: str, seed: int):
    return GENERATORS[workload](seed)


def digest(obj) -> str:
    """Stable hash of generated inputs, to show set-up is deterministic."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for k in sorted(x):
                h.update(k.encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for v in x:
                feed(v)
        elif isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x, dtype=float).tobytes())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()
