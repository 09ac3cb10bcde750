"""Trend removal (MATLAB ``detrend`` semantics)."""

from __future__ import annotations

import numpy as np


def demean(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Remove the mean along ``axis`` (MATLAB ``detrend(x, 'constant')``)."""
    x = np.asarray(x, dtype=np.float64)
    return x - x.mean(axis=axis, keepdims=True)


def detrend(x: np.ndarray, type: str = "linear", axis: int = -1) -> np.ndarray:
    """Remove the best straight-line fit (or the mean) along ``axis``.

    ``type="linear"`` subtracts the least-squares line fitted to each
    series; ``type="constant"`` subtracts the mean.  Matches MATLAB's
    ``detrend`` and the paper's ``Das_detrend``.
    """
    if type in ("constant", "c"):
        return demean(x, axis=axis)
    if type not in ("linear", "l"):
        raise ValueError(f"unknown detrend type {type!r}")

    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    if n < 2:
        return demean(x, axis=axis)

    moved = np.moveaxis(x, axis, -1)
    t_centred = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    # Σ (t - t̄)² for t = 0..n-1 in closed form.
    denom = n * (n * n - 1.0) / 12.0
    x_mean = moved.mean(axis=-1, keepdims=True)
    # slope per series: <t - t̄, x - x̄> / <t - t̄, t - t̄>.  An einsum, not
    # a BLAS dot: a level-1/2 call this size stalls for scheduler ticks in
    # OpenBLAS's thread hand-off while the executor's workers hold the cores.
    slope = np.einsum("...t,t->...", moved - x_mean, t_centred) / denom
    fitted = x_mean + slope[..., None] * t_centred
    return np.moveaxis(moved - fitted, -1, axis)
