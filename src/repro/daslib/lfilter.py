"""IIR/FIR filtering: ``lfilter`` and ``lfilter_zi``.

``lfilter`` implements the direct-form-II-transposed difference equation
from scratch in numpy (a time loop with all other axes vectorised).  When
scipy is importable, ``engine="auto"`` delegates the inner recursion to
``scipy.signal.lfilter`` as a compiled kernel — the algorithmic content
(normalisation, state handling, initial conditions) lives here either
way, and the two paths are cross-validated by tests.

The kernel is imported on the first compiled call (:func:`compiled_kernel`),
not with this module: ``scipy.signal`` maps ~530 modules and ~70 MiB, and
the storage and serving layers that reach ``daslib`` never filter.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def compiled_kernel():
    """``scipy.signal.lfilter``, imported on the first call; None when
    scipy cannot be imported.  Concurrent first calls are safe: the
    import system runs the module's import once and the others wait."""
    try:
        from scipy.signal import lfilter as kernel
    except ImportError:
        return None
    return kernel


def _normalise_ba(b: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("filter coefficients must be 1-D")
    if a[0] == 0:
        raise ValueError("a[0] must be nonzero")
    n = max(len(a), len(b))
    b = np.concatenate([b, np.zeros(n - len(b))]) / a[0]
    a = np.concatenate([a, np.zeros(n - len(a))]) / a[0]
    return b, a


def _lfilter_numpy(
    b: np.ndarray, a: np.ndarray, x: np.ndarray, zi: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Direct form II transposed, time loop over the last axis."""
    n = len(b)
    y = np.empty_like(x)
    state_shape = (n - 1,) + x.shape[:-1]
    z = np.zeros(state_shape) if zi is None else np.array(zi, dtype=np.float64)
    if n == 1:
        return b[0] * x, z
    for m in range(x.shape[-1]):
        xm = x[..., m]
        ym = b[0] * xm + z[0]
        y[..., m] = ym
        for i in range(n - 2):
            z[i] = b[i + 1] * xm + z[i + 1] - a[i + 1] * ym
        z[n - 2] = b[n - 1] * xm - a[n - 1] * ym
    return y, z


def lfilter(
    b: np.ndarray,
    a: np.ndarray,
    x: np.ndarray,
    axis: int = -1,
    zi: np.ndarray | None = None,
    engine: str = "auto",
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Apply a rational filter ``b/a`` along ``axis``.

    Returns ``y`` when ``zi`` is None, else ``(y, zf)`` with the final
    state — the scipy convention, so pipelines can stream blocks.

    ``engine``: ``"numpy"`` forces the from-scratch recursion, ``"scipy"``
    the compiled kernel, ``"auto"`` picks scipy when available.
    """
    b, a = _normalise_ba(b, a)
    x = np.asarray(x, dtype=np.float64)
    if engine not in ("auto", "numpy", "scipy"):
        raise ValueError(f"unknown engine {engine!r}")
    kernel = None if engine == "numpy" else compiled_kernel()
    if engine == "scipy" and kernel is None:
        raise RuntimeError("scipy is not available")

    moved = np.moveaxis(x, axis, -1)
    if kernel is not None:
        if zi is None:
            y = kernel(b, a, moved, axis=-1)
            return np.moveaxis(y, -1, axis)
        # scipy wants the state axis last; ours is first for broadcasting.
        zi_s = np.moveaxis(np.asarray(zi, dtype=np.float64), 0, -1)
        y, zf = kernel(b, a, moved, axis=-1, zi=zi_s)
        return np.moveaxis(y, -1, axis), np.moveaxis(zf, -1, 0)

    y, zf = _lfilter_numpy(b, a, moved, zi)
    y = np.moveaxis(y, -1, axis)
    if zi is None:
        return y
    return y, zf


def _companion(a: np.ndarray) -> np.ndarray:
    """Companion matrix of a monic-normalisable polynomial ``a``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or len(a) < 2:
        raise ValueError("need a 1-D polynomial of degree >= 1")
    if a[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    n = len(a) - 1
    mat = np.zeros((n, n))
    mat[0, :] = -a[1:] / a[0]
    if n > 1:
        mat[1:, :-1] = np.eye(n - 1)
    return mat


def lfilter_zi(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Initial filter state for a unit-step response (scipy semantics).

    ``lfilter(b, a, ones, zi=zi)`` then yields the steady-state output
    from the first sample — the property ``filtfilt`` relies on to avoid
    edge transients.
    """
    b, a = _normalise_ba(b, a)
    n = len(a)
    if n == 1:
        return np.zeros(0)
    # Solve (I - A^T) zi = B with A the companion matrix of a.
    IminusA = np.eye(n - 1) - _companion(a).T
    B = b[1:] - a[1:] * b[0]
    zi = np.linalg.solve(IminusA, B)
    return zi
