"""Correlation measures: ``Das_abscorr`` and cross-correlation.

``abscorr`` is the paper's similarity kernel: the absolute cosine of the
angle between two windows, ``|cos θ(c1, c2)|`` — the quantity maximised
over lags in the local-similarity detector (Algorithm 2) and applied to
spectra in the interferometry pipeline (Algorithm 3).
"""

from __future__ import annotations

import numpy as np

from repro.daslib.fft import irfft, next_fast_len, rfft

#: Tolerance below which a window is treated as all-zero (abscorr -> 0).
_EPS = 1e-300

#: Per-window dead-norm threshold: a window whose L2 norm is at or below
#: this is treated as silence (abscorr -> 0).  The threshold applies to
#: each norm individually, NOT to their product — the product of two
#: tiny-but-live norms underflows far earlier than either norm does.
_DEAD_NORM = 1e-290


def abscorr(c1: np.ndarray, c2: np.ndarray, axis: int = -1) -> np.ndarray | float:
    """Absolute correlation ``|cos θ(c1, c2)|`` along ``axis``.

    Accepts real or complex inputs (complex for spectra); broadcasting
    applies across the remaining axes.  Windows with norm <= ``1e-290``
    yield 0.0 rather than NaN so noisy-but-dead channels don't poison
    detections.
    """
    c1 = np.asarray(c1)
    c2 = np.asarray(c2)
    # Everything — the cosine AND the dead-window norms — is computed on
    # peak-rescaled windows (|cos θ| is scale-invariant) so that
    # tiny-amplitude windows don't lose precision to denormal squares:
    # ``peak * ||v/peak||`` cannot underflow, where ``sum(|v|**2)`` does
    # as soon as elements dip below ~1.5e-162.
    s1 = np.max(np.abs(c1), axis=axis, keepdims=True)
    s2 = np.max(np.abs(c2), axis=axis, keepdims=True)
    u1 = c1 / np.where(s1 > 0, s1, 1.0)
    u2 = c2 / np.where(s2 > 0, s2, 1.0)
    r1 = np.sqrt(np.sum(np.abs(u1) ** 2, axis=axis))  # in [1, sqrt(n)]
    r2 = np.sqrt(np.sum(np.abs(u2) ** 2, axis=axis))
    n1 = np.squeeze(s1, axis=axis) * r1
    n2 = np.squeeze(s2, axis=axis) * r2
    alive = (n1 > _DEAD_NORM) & (n2 > _DEAD_NORM)
    num = np.abs(np.sum(u1 * np.conj(u2), axis=axis))
    denom = r1 * r2
    safe = alive & (denom > _EPS)
    out = np.where(safe, num / np.where(safe, denom, 1.0), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def xcorr(
    a: np.ndarray, b: np.ndarray, max_lag: int | None = None, normalize: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Time-domain cross-correlation of two 1-D series via FFT.

    Returns ``(lags, values)`` with lags in ``[-max_lag, +max_lag]``
    (default: full overlap range).  With ``normalize=True`` values are
    scaled by the geometric mean of the energies (bounded by 1 for equal
    lengths).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("xcorr takes 1-D inputs")
    n = len(a) + len(b) - 1
    nfft = next_fast_len(n)
    fa = rfft(a, nfft)
    fb = rfft(b, nfft)
    cc = irfft(fa * np.conj(fb), nfft)[:n]
    # Reorder to lags -len(b)+1 .. len(a)-1.
    cc = np.concatenate([cc[-(len(b) - 1) :], cc[: len(a)]]) if len(b) > 1 else cc[: len(a)]
    lags = np.arange(-(len(b) - 1), len(a))
    if normalize:
        denom = np.sqrt(np.einsum("i,i->", a, a) * np.einsum("i,i->", b, b))
        if denom > _EPS:
            cc = cc / denom
    if max_lag is not None:
        if max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        keep = (lags >= -max_lag) & (lags <= max_lag)
        lags, cc = lags[keep], cc[keep]
    return lags, cc
