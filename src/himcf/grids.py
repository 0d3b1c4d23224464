"""Uniform normal-angle grids and trigonometric-interpolation differentiation.

The flow solvers and monitors all live on a periodic grid theta_j = 2*pi*j/N.
Differentiation is spectral (FFT multipliers), exact for trigonometric
polynomials of degree < N/2; the curvature denominator S_thth + S needs the
second derivative at high accuracy, which rules out low-order stencils.

Every Fourier transform of the package is here: the pocketfft gufuncs that
np.fft.rfft / irfft call (numpy >= 2.0), called directly for the same bits
without the Python wrappers, which cost more than a transform at N <= 128.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# The C module np.fft.rfft / irfft call; a numpy that moves it fails this import.
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import InvalidConfig, NonFinite

TWO_PI = 2.0 * np.pi
_RFFT = (_pocketfft.rfft_n_even, _pocketfft.rfft_n_odd)   # by n % 2, with fct = 1; irfft: 1/n


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
            raise InvalidConfig(f"grid size must be even and >= 16, got {self.N}")

    @property
    def theta(self) -> np.ndarray:
        return _grid_theta(self.N)


@lru_cache(maxsize=64)
def _grid_theta(n: int) -> np.ndarray:
    return _readonly(TWO_PI * np.arange(n) / n)


def rfft(x: np.ndarray) -> np.ndarray:
    """np.fft.rfft of real rows x (..., n): their half spectra (..., n//2 + 1)."""
    n = x.shape[-1]
    return _RFFT[n % 2](x, 1.0, out=(np.empty(x.shape[:-1] + (n // 2 + 1,), complex),))


@lru_cache(maxsize=64)
def _derivative_multipliers(n: int, order: int) -> np.ndarray:
    freq = np.fft.rfftfreq(n, d=1.0 / n)
    mult = (1j * freq) ** order
    if order % 2 == 1 and n % 2 == 0:
        # Nyquist mode of a real sequence carries no sign information for odd
        # derivatives; the symmetric interpolant assigns it derivative zero.
        mult[-1] = 0.0
    mult.setflags(write=False)
    return mult


def periodic_derivative(values: np.ndarray, order: int) -> np.ndarray:
    """Spectral order-th derivative of real periodic samples (..., n), row by row."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    v = np.asarray(values, dtype=float)
    if v.ndim == 0:
        raise ValueError("expected samples along a last axis")
    if not np.all(np.isfinite(v)):
        raise NonFinite("non-finite samples (an overflow or NaN)")
    spectrum = rfft(v) * _derivative_multipliers(v.shape[-1], order)
    return _pocketfft.irfft(spectrum, 1.0 / v.shape[-1], out=(np.empty(v.shape),))


@lru_cache(maxsize=64)
def kernel_plan(n: int) -> tuple:
    """support_pair's constants at n points: the [2nd, 1st] multiplier table, rfft, 1/n."""
    table = np.stack([_derivative_multipliers(n, 2), _derivative_multipliers(n, 1)])
    table.setflags(write=False)
    return table, _RFFT[n % 2], 1.0 / n


def support_pair(sv, S, d, rho, finite, spectrum, table, rfft, inv_n) -> np.ndarray:
    """Kernel body: d = [S_thth + S, V_theta] of a (..., 2, N) stack sv; checks finiteness only.

    S and rho are the S rows of sv and d; finite (None: new) and spectrum are
    scratch shaped like sv and (..., 2, N//2 + 1) complex; the rest is kernel_plan(N).
    """
    if not np.logical_and.reduce(np.isfinite(sv, out=finite), axis=None):
        raise NonFinite("non-finite samples (an overflow or NaN)")
    rfft(sv, 1.0, out=(spectrum,))
    np.multiply(spectrum, table, out=spectrum)
    _pocketfft.irfft(spectrum, inv_n, out=(d,))
    np.add(rho, S, out=rho)
    return d


def support_derivatives(sv: np.ndarray) -> np.ndarray:
    """[S_thth + S, V_theta] of a (..., 2, N) float stack of rows [S, V]; the kernel's entry.

    One FFT round trip serves the whole stack (a batch of B members costs one
    transform); each row equals the periodic_derivative call bit for bit.
    The shape is checked here, then support_pair does the work.
    """
    if sv.ndim < 2 or sv.shape[-2] != 2:
        raise ValueError(f"expected a (..., 2, N) stack of rows [S, V], got {sv.shape}")
    d = np.empty(sv.shape)
    spectrum = np.empty(sv.shape[:-1] + (sv.shape[-1] // 2 + 1,), complex)
    return support_pair(sv, sv[..., 0, :], d, d[..., 0, :], None, spectrum,
                        *kernel_plan(sv.shape[-1]))
