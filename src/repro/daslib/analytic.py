"""Analytic signal (Hilbert transform) via the FFT method.

Needed by phase-weighted stacking: the instantaneous phase of each
noise-correlation trace is ``angle(hilbert(x))``.
"""

from __future__ import annotations

import numpy as np

from repro.daslib.fft import fft, ifft


def hilbert(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Analytic signal ``x + i * H(x)`` along ``axis``.

    Standard single-sided-spectrum construction: zero the negative
    frequencies, double the positive ones, keep DC (and Nyquist for even
    lengths) unscaled.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    if n == 0:
        raise ValueError("cannot take the analytic signal of an empty axis")
    spectrum = fft(x, axis=axis)
    gain = np.zeros(n)
    if n % 2 == 0:
        gain[0] = 1.0
        gain[n // 2] = 1.0
        gain[1 : n // 2] = 2.0
    else:
        gain[0] = 1.0
        gain[1 : (n + 1) // 2] = 2.0
    shape = [1] * x.ndim
    shape[axis] = n
    return ifft(spectrum * gain.reshape(shape), axis=axis)


def envelope(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Instantaneous amplitude ``|hilbert(x)|``."""
    return np.abs(hilbert(x, axis=axis))
