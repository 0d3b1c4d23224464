"""Independent reference computations for the benchmark's output checks.

Nothing here imports himcf: the checks must not trust the code they time.
Every formula is written out from the flow's closed forms and the
comparison principle for plane curves moving normally.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def grid(n: int) -> np.ndarray:
    return TWO_PI * np.arange(n) / n


def curvature_radius(S: np.ndarray) -> np.ndarray:
    """S'' + S by trigonometric interpolation (FFT multipliers -k^2)."""
    n = S.shape[-1]
    k = np.arange(n // 2 + 1, dtype=float)
    return np.fft.irfft(np.fft.rfft(S) * (1.0 - k * k), n)


def angular_derivative(V: np.ndarray) -> np.ndarray:
    """V_theta by trigonometric interpolation; the Nyquist mode is dropped."""
    n = V.shape[-1]
    k = np.arange(n // 2 + 1, dtype=float)
    if n % 2 == 0:
        k[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(V) * (1j * k), n)


def hermite_residual(t: np.ndarray, S: np.ndarray, V: np.ndarray) -> float:
    """Worst relative defect of consecutive snapshots against the flow ODE.

    A solution of S_t = V, V_t = a with a = V_theta^2/(S''+S) + (S''+S)
    satisfies, over a step h,
        S(t+h) - S(t) = h/2 (V(t) + V(t+h)) + h^2/12 (a(t) - a(t+h)) + O(h^5).
    Steps that end within reach of a degeneracy (min S''+S below a quarter
    of its initial value) are skipped: there a blows up and the O(h^5) term
    with it.  The result is relative to max |S|.
    """
    rho = curvature_radius(S)
    a = angular_derivative(V) ** 2 / rho + rho
    h = np.diff(t)[:, None]
    defect = S[1:] - S[:-1] - 0.5 * h * (V[:-1] + V[1:]) - h * h / 12.0 * (a[:-1] - a[1:])
    rho_min = rho.min(axis=1)
    sound = np.minimum(rho_min[:-1], rho_min[1:]) >= 0.25 * rho_min[0]
    if not sound.any():
        return 0.0
    return float(np.max(np.abs(defect[sound]))) / float(np.max(np.abs(S)))


def trig_interpolate(samples: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of uniform samples at angles."""
    n = samples.size
    c = np.fft.rfft(samples) / n
    k = np.arange(c.size)
    w = np.full(c.size, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    phase = np.exp(1j * np.outer(angles, k))
    return np.real(phase @ (w * c))


def circle_radius(r0: float, r1: float, t):
    """r'' = r with r(0) = r0, r'(0) = r1: the normally moving circle."""
    t = np.asarray(t, dtype=float)
    return 0.5 * (r0 + r1) * np.exp(t) + 0.5 * (r0 - r1) * np.exp(-t)


def circle_collapse_time(r0: float, r1: float) -> float:
    """Zero of circle_radius; exists only for r1 < -r0."""
    return 0.5 * math.log((r1 - r0) / (r1 + r0))


def regime(S0: np.ndarray, V0: np.ndarray):
    """Outcome the comparison principle predicts from initial data.

    delta and zeta are the smallest and largest initial curvature.  Returns
    ("LongTime", None) when 1/zeta + f_min > 0, ("FiniteTime", T*) when
    1/delta + f_max < 0 with T* = 1/2 ln((-1 + delta f_max)/(1 + delta f_max)),
    else ("Indeterminate", None).
    """
    rho = curvature_radius(S0)
    delta = 1.0 / float(np.max(rho))
    zeta = 1.0 / float(np.min(rho))
    f_min = float(np.min(V0))
    f_max = float(np.max(V0))
    if 1.0 / zeta + f_min > 0.0:
        return "LongTime", None
    if 1.0 / delta + f_max < 0.0:
        x = delta * f_max
        return "FiniteTime", 0.5 * math.log((-1.0 + x) / (1.0 + x))
    return "Indeterminate", None


def cosine_series(coeffs, theta: np.ndarray) -> np.ndarray:
    """c0 + sum_j c_j cos(j theta), the CLI's fourier preset."""
    out = np.full(theta.shape, float(coeffs[0]))
    for j, c in enumerate(coeffs[1:], start=1):
        out += c * np.cos(j * theta)
    return out


def ellipse_support(a: float, b: float, theta: np.ndarray) -> np.ndarray:
    return np.sqrt((a * np.cos(theta)) ** 2 + (b * np.sin(theta)) ** 2)
