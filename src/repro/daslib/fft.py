"""FFT helpers (``Das_fft`` / ``Das_ifft`` and friends).

Thin, documented wrappers over numpy's pocketfft plus ``next_fast_len``
(smallest 5-smooth size ≥ n), which the correlation and resampling code
uses to keep transform sizes fast.
"""

from __future__ import annotations

import numpy as np


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth number (2^a 3^b 5^c) that is >= ``n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 6:
        return n
    best = 1 << (n - 1).bit_length()  # fallback: next power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power of two lifting p35 to >= n
            quotient = -(-n // p35)
            p2 = 1 << (quotient - 1).bit_length()
            candidate = p2 * p35
            if candidate == n:
                return n
            if candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


def fft(x: np.ndarray, n: int | None = None, axis: int = -1) -> np.ndarray:
    """Complex FFT along ``axis`` (MATLAB ``fft`` semantics)."""
    return np.fft.fft(np.asarray(x), n=n, axis=axis)


def ifft(x: np.ndarray, n: int | None = None, axis: int = -1) -> np.ndarray:
    """Inverse complex FFT along ``axis``."""
    return np.fft.ifft(np.asarray(x), n=n, axis=axis)


def rfft(x: np.ndarray, n: int | None = None, axis: int = -1) -> np.ndarray:
    """Real-input FFT (half spectrum)."""
    return np.fft.rfft(np.asarray(x, dtype=np.float64), n=n, axis=axis)


def irfft(x: np.ndarray, n: int | None = None, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`rfft`."""
    return np.fft.irfft(np.asarray(x), n=n, axis=axis)
