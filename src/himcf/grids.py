"""Uniform normal-angle grids and trigonometric-interpolation differentiation.

The flow solvers and monitors all live on a periodic grid theta_j = 2*pi*j/N.
Differentiation is spectral (FFT multipliers), exact for trigonometric
polynomials of degree < N/2; the curvature denominator S_thth + S needs the
second derivative at high accuracy, which rules out low-order stencils.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFinite

TWO_PI = 2.0 * np.pi


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AngleGrid:
    """N uniform samples of the normal angle on [0, 2*pi)."""

    N: int

    def __post_init__(self):
        if self.N < 16 or self.N % 2 != 0:
            raise ValueError(f"grid size must be even and >= 16, got {self.N}")

    @property
    def theta(self) -> np.ndarray:
        return _grid_theta(self.N)

    @property
    def dtheta(self) -> float:
        return TWO_PI / self.N


@lru_cache(maxsize=64)
def _grid_theta(n: int) -> np.ndarray:
    return _readonly(TWO_PI * np.arange(n) / n)


@lru_cache(maxsize=64)
def _derivative_multipliers(n: int, order: int) -> np.ndarray:
    freq = np.fft.rfftfreq(n, d=1.0 / n)
    mult = (1j * freq) ** order
    if order % 2 == 1 and n % 2 == 0:
        # Nyquist mode of a real sequence carries no sign information for odd
        # derivatives; the symmetric interpolant assigns it derivative zero.
        mult = mult.copy()
        mult[-1] = 0.0
    mult.setflags(write=False)
    return mult


def periodic_derivative(values: np.ndarray, order: int) -> np.ndarray:
    """Spectral order-th derivative of a real periodic sample sequence."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-d sample sequence")
    if not np.all(np.isfinite(v)):
        raise NonFinite("non-finite samples (an overflow or NaN)")
    mult = _derivative_multipliers(v.size, order)
    return np.fft.irfft(np.fft.rfft(v) * mult, v.size)


@lru_cache(maxsize=64)
def _support_multipliers(n: int) -> np.ndarray:
    table = np.stack([_derivative_multipliers(n, 2), _derivative_multipliers(n, 1)])
    table.setflags(write=False)
    return table


def support_derivatives(sv: np.ndarray, out: np.ndarray | None = None,
                        spectrum: np.ndarray | None = None) -> np.ndarray:
    """[S_thth + S, V_theta] of a (..., 2, N) float array of rows [S, V]: the one stage kernel.

    One FFT round trip serves the whole stack (a batch of B members costs one
    transform); each row equals the periodic_derivative call bit for bit.
    The pair is written to out and the half spectrum to spectrum, shaped
    (..., 2, N) and (..., 2, N//2 + 1) complex, when the caller gives them.
    """
    if sv.ndim < 2 or sv.shape[-2] != 2:
        raise ValueError(f"expected a (..., 2, N) stack of rows [S, V], got {sv.shape}")
    if not np.logical_and.reduce(np.isfinite(sv), axis=None):
        raise NonFinite("non-finite samples (an overflow or NaN)")
    n = sv.shape[-1]
    spectrum = np.fft.rfft(sv, out=spectrum)
    np.multiply(spectrum, _support_multipliers(n), out=spectrum)
    d = np.fft.irfft(spectrum, n, out=out)
    d[..., 0, :] += sv[..., 0, :]
    return d
