"""Grid construction and spectral differentiation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from himcf.errors import InvalidConfig
from himcf.grids import (TWO_PI, AngleGrid, kernel_plan, periodic_derivative, rfft,
                         support_derivatives, support_pair)


def test_grid_samples_are_uniform():
    g = AngleGrid(64)
    assert g.theta.shape == (64,)
    assert g.theta[0] == 0.0
    np.testing.assert_allclose(np.diff(g.theta), TWO_PI / 64, rtol=0, atol=1e-15)
    # periodic closure: theta_N would land on 2*pi
    assert g.theta[-1] + TWO_PI / 64 == pytest.approx(2 * np.pi, abs=1e-15)


@pytest.mark.parametrize("bad", [15, 17, 14, 0, -16])
def test_grid_rejects_odd_or_small_sizes(bad):
    # InvalidConfig is a ValueError, so code that checks for either catches it.
    with pytest.raises(ValueError):
        AngleGrid(bad)
    with pytest.raises(InvalidConfig):
        AngleGrid(bad)


def test_derivative_of_constant_is_zero():
    out = periodic_derivative(np.full(32, 3.7), 1)
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_second_derivative_eigenfunction():
    theta = AngleGrid(32).theta
    out = periodic_derivative(np.cos(theta), 2)
    np.testing.assert_allclose(out, -np.cos(theta), atol=1e-12)


def test_first_derivative_trig_combination():
    # cos(3t) + 0.2 sin(5t) at N=64, derivative -3 sin(3t) + cos(5t)
    theta = AngleGrid(64).theta
    values = np.cos(3 * theta) + 0.2 * np.sin(5 * theta)
    exact = -3.0 * np.sin(3 * theta) + np.cos(5 * theta)
    np.testing.assert_allclose(periodic_derivative(values, 1), exact, atol=1e-10)


def test_exact_on_trig_polynomials_below_nyquist():
    n = 32
    theta = AngleGrid(n).theta
    for m in range(1, n // 2):
        v = np.cos(m * theta) + 0.5 * np.sin(m * theta)
        d1 = -m * np.sin(m * theta) + 0.5 * m * np.cos(m * theta)
        np.testing.assert_allclose(periodic_derivative(v, 1), d1, atol=5e-11)
        np.testing.assert_allclose(periodic_derivative(v, 2), -m * m * v, atol=5e-10)


def test_rejects_bad_order_and_nonfinite():
    v = np.ones(16)
    with pytest.raises(ValueError):
        periodic_derivative(v, 3)
    with pytest.raises(ValueError):
        periodic_derivative(np.array([1.0, np.nan] + [0.0] * 14), 1)
    with pytest.raises(ValueError):
        periodic_derivative(np.float64(1.0), 1)


@pytest.mark.parametrize("n", [16, 18, 64, 128, 512])
def test_support_derivatives_match_separate_calls_bit_for_bit(n):
    # Every size is even, so the first-derivative row zeroes a Nyquist mode;
    # 18 adds a length that is not a power of two.
    rng = np.random.default_rng(n)
    S = 2.0 + 0.3 * rng.standard_normal(n)
    V = rng.standard_normal(n)
    rho, V_th = support_derivatives(np.array([S, V]))
    assert np.array_equal(rho, periodic_derivative(S, 2) + S)
    assert np.array_equal(V_th, periodic_derivative(V, 1))


@pytest.mark.parametrize("n", [16, 18, 128])
@pytest.mark.parametrize("shape", [(1,), (3,), (8,), (2, 4)])
def test_support_derivatives_of_a_stack_equal_row_by_row_calls(n, shape):
    # The batched flow's stages: one transform of every member's [S, V].
    rng = np.random.default_rng(n + len(shape))
    sv = rng.standard_normal(shape + (2, n))
    sv[..., 0, :] += 2.0
    d = support_derivatives(sv)
    assert d.shape == sv.shape
    for idx in np.ndindex(shape):
        assert np.array_equal(d[idx], support_derivatives(sv[idx]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1])
def test_support_derivatives_reject_nonfinite(bad, row):
    sv = np.array([np.ones(16), np.zeros(16)])
    sv[row][5] = bad
    with pytest.raises(ValueError):
        support_derivatives(sv)


def test_support_derivatives_reject_mismatched_rows():
    # Rows of unequal length cannot form a stack; anything not (..., 2, N) is refused.
    for bad in (np.ones(16), np.ones((3, 16)), np.ones((2, 2, 3, 16))):
        with pytest.raises(ValueError):
            support_derivatives(bad)


# The kernels call numpy's pocketfft gufuncs directly; these tests hold them to
# the public np.fft round trip bit for bit, at even and odd lengths.

def public_multipliers(n, order):
    mult = (1j * np.fft.rfftfreq(n, d=1.0 / n)) ** order
    if order == 1 and n % 2 == 0:
        mult[-1] = 0.0
    return mult


def public_derivative(x, order):
    n = x.shape[-1]
    return np.fft.irfft(np.fft.rfft(x) * public_multipliers(n, order), n)


@pytest.mark.parametrize("n", [16, 17, 18, 33, 64, 128, 512, 1000, 1001])
@pytest.mark.parametrize("shape", [(), (2,), (2, 4, 2)])
def test_rfft_equals_np_fft_bit_for_bit(n, shape):
    x = np.random.default_rng(n).standard_normal(shape + (n,))
    spectrum = rfft(x)
    assert spectrum.shape == shape + (n // 2 + 1,)
    assert spectrum.tobytes() == np.fft.rfft(x).tobytes()


# A 1-d case keeps the plain id n; a (2, 4) stack of rows is "n-2x4".
@pytest.mark.parametrize("n, shape", [pytest.param(n, shape, id=f"{n}-2x4" if shape else str(n))
                                      for shape in [(), (2, 4)] for n in [16, 17, 18, 64, 128, 512]])
@pytest.mark.parametrize("order", [1, 2])
def test_periodic_derivative_equals_the_public_round_trip(n, shape, order):
    v = 2.0 + np.random.default_rng(n).standard_normal(shape + (n,))
    d = periodic_derivative(v, order)
    assert d.shape == v.shape
    assert d.tobytes() == public_derivative(v, order).tobytes()


@pytest.mark.parametrize("n", [16, 17, 18, 64, 128, 512])
@pytest.mark.parametrize("shape", [(), (2, 4)])
@pytest.mark.parametrize("buffers", [False, True])
def test_support_derivatives_equal_the_public_round_trip(n, shape, buffers):
    sv = np.random.default_rng(n).standard_normal(shape + (2, n))
    sv[..., 0, :] += 2.0
    expected = np.stack([public_derivative(sv[..., 0, :], 2) + sv[..., 0, :],
                         public_derivative(sv[..., 1, :], 1)], axis=-2)
    if buffers:
        # The kernel body on caller-prepared arrays, as a run's stages call it.
        out, spectrum = np.empty(sv.shape), np.empty(shape + (2, n // 2 + 1), complex)
        d = support_pair(sv, sv[..., 0, :], out, out[..., 0, :], np.empty(sv.shape, bool),
                         spectrum, *kernel_plan(n))
    else:
        d = support_derivatives(sv)
    assert d.tobytes() == expected.tobytes()
    if buffers:
        assert d is out
        assert spectrum.tobytes() == (np.fft.rfft(sv) * np.stack(
            [public_multipliers(n, 2), public_multipliers(n, 1)])).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    m=st.integers(1, 7),
    order=st.sampled_from([1, 2]),
)
def test_derivative_is_linear(a, b, m, order):
    theta = AngleGrid(32).theta
    u = np.cos(m * theta)
    v = np.sin(2 * theta)
    lhs = periodic_derivative(a * u + b * v, order)
    rhs = a * periodic_derivative(u, order) + b * periodic_derivative(v, order)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)
