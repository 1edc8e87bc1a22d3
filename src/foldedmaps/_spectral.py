"""Shared Fourier machinery on uniformly sampled circles.

Conventions: M uniform angles theta_k = 2*pi*k/M, coefficients in numpy FFT
order with c_n = (1/M) sum_k values_k exp(-i n theta_k), so a band-limited
function is reproduced exactly.  All derivative and multiplier operators
act mode-wise.
"""

from __future__ import annotations

import numpy as np

from .errors import PeriodObstructionError, ResolutionError
from .config import CONFIG


def angles(m: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(m) / m


def modes(m: int) -> np.ndarray:
    """Integer mode numbers in FFT order: 0, 1, ..., M/2-1, -M/2, ..., -1."""
    return np.fft.fftfreq(m, d=1.0 / m).astype(int)


def coeffs(values: np.ndarray) -> np.ndarray:
    """Coefficients along the last (angle) axis."""
    return np.fft.fft(values, axis=-1) / values.shape[-1]


def from_coeffs(c: np.ndarray) -> np.ndarray:
    """Samples from coefficients along the last (angle) axis."""
    return np.fft.ifft(c, axis=-1) * c.shape[-1]


def theta_derivative(values: np.ndarray) -> np.ndarray:
    """Spectral d/dtheta along the last (angle) axis; exact if band-limited.

    One FFT, one multiply and one inverse FFT; the 1/M of the coefficients
    and the M of the synthesis cancel, so neither is applied.  Real data
    takes the real FFT pair, whose modes 0..M//2 lead `modes(m)`.
    """
    m = values.shape[-1]
    mult = 1j * modes(m)
    if m % 2 == 0:
        # kill the unmatched Nyquist mode of the odd derivative
        mult[m // 2] = 0.0
    if np.isrealobj(values):
        c = np.fft.rfft(values)
        c *= mult[:m // 2 + 1]
        return np.fft.irfft(c, m)
    c = np.fft.fft(values)
    c *= mult
    return np.fft.ifft(c, out=c)


def theta_antiderivative(values: np.ndarray) -> np.ndarray:
    """Zero-mean spectral antiderivative; raises if the input has a mean."""
    m = values.shape[0]
    c = coeffs(values)
    scale = max(1.0, float(np.max(np.abs(values))))
    if abs(c[0]) > CONFIG.tol.period_tol * scale:
        raise PeriodObstructionError(
            f"antiderivative of data with nonzero mean {c[0]!r}")
    n = modes(m)
    out = np.zeros_like(c)
    nz = n != 0
    out[nz] = c[nz] / (1j * n[nz])
    res = from_coeffs(out)
    if np.isrealobj(values):
        return res.real
    return res


def top_band_fraction(values: np.ndarray) -> float:
    """Energy fraction carried by modes |n| >= 0.45 * M."""
    m = values.shape[0]
    c = coeffs(values)
    n = np.abs(modes(m))
    total = float(np.sum(np.abs(c) ** 2))
    if total == 0.0:
        return 0.0
    hi = float(np.sum(np.abs(c[n >= 0.45 * m]) ** 2))
    return hi / total


def check_resolution(values: np.ndarray, where: str = "samples") -> None:
    frac = top_band_fraction(values)
    if frac > CONFIG.tol.nyquist_fraction:
        raise ResolutionError(
            f"{where}: Nyquist-band energy fraction {frac:.3e} exceeds "
            f"{CONFIG.tol.nyquist_fraction:.1e}")


def band_limit(values: np.ndarray) -> np.ndarray:
    """Zero all modes with |n| above M/4 (noise control)."""
    m = values.shape[0]
    c = coeffs(values)
    c[np.abs(modes(m)) > 0.25 * m] = 0.0
    out = from_coeffs(c)
    return out.real if np.isrealobj(values) else out


def conjugation_multiplier(m: int, exterior: bool) -> np.ndarray:
    """Mode multiplier sending Re-trace to Im-trace of a holomorphic field.

    Interior disk (anchor at the center): g_n = -i sign(n) f_n.
    Exterior of a circle (anchor at infinity): g_n = +i sign(n) f_n.
    """
    n = modes(m)
    s = np.sign(n).astype(complex)
    return (1j if exterior else -1j) * s


def phase_winding(samples: np.ndarray) -> int:
    """Integer winding number of a loop of nonvanishing complex samples."""
    ratios = samples / np.roll(samples, 1)
    total = float(np.sum(np.angle(ratios)))
    return int(np.rint(total / (2.0 * np.pi)))


def fd_weights(nodes: np.ndarray, x0: np.ndarray | float,
               order: int) -> np.ndarray:
    """Fornberg finite-difference weights for d^order/dx^order at x0.

    nodes (..., n) and x0 (...) broadcast over their leading axes, and the
    result is (..., n).  The recursion runs elementwise over those axes,
    so every stencil of a batch is bitwise its own 1-D call.
    """
    nodes = np.asarray(nodes, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = nodes.shape[-1]
    if n <= order:
        raise ValueError("not enough nodes for requested derivative order")
    c = np.zeros(np.broadcast_shapes(nodes.shape[:-1], x0.shape)
                 + (n, order + 1))
    c[..., 0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[..., 0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[..., i] - x0
        for j in range(i):
            c3 = nodes[..., i] - nodes[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1]
                                         - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c[..., order]
