"""Zero-phase filtering (``filtfilt``, MATLAB semantics).

Forward-backward application of an IIR filter with odd-reflection edge
padding and steady-state initial conditions — the standard transient
suppression recipe (Gustafsson-style padding as in MATLAB/scipy).

``filtfilt`` is the composition of two halves, :func:`_forward` and
:func:`_backward`, so a streaming caller can run the forward half once
per sample and carry its state across pieces (the incremental runner
does, through :class:`~repro.core.operators.FiltFiltOp`); the halves make
exactly the ``lfilter`` calls ``filtfilt`` makes, in the same order.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.daslib.lfilter import lfilter, lfilter_zi


def _odd_ext(x: np.ndarray, n: int, axis: int = -1) -> np.ndarray:
    """Odd (antisymmetric) extension of ``x`` by ``n`` samples per edge."""
    if n < 1:
        return x
    if n > x.shape[axis] - 1:
        raise ValueError(
            f"padding {n} exceeds signal length {x.shape[axis]} - 1 along axis"
        )
    moved = np.moveaxis(x, axis, -1)
    left = 2 * moved[..., :1] - moved[..., n:0:-1]
    right = 2 * moved[..., -1:] - moved[..., -2 : -n - 2 : -1]
    out = np.concatenate([left, moved, right], axis=-1)
    return np.moveaxis(out, -1, axis)


def settle_length(
    b: np.ndarray,
    a: np.ndarray,
    tol: float = 1e-10,
    cap: int = 1 << 17,
) -> int:
    """Samples after which the filter's impulse response falls below ``tol``.

    Estimated from the slowest pole: ``|h[n]|`` decays like ``r**n`` with
    ``r`` the largest pole magnitude, so ``n = log(tol) / log(r)``.  Used
    by the streaming executor to size the overlap (ghost zone) a chunked
    ``filtfilt`` needs so that chunk edges match whole-array output to
    within ``tol``.  Returns at least ``3 * max(len(a), len(b))`` (the
    ``filtfilt`` edge padding) and at most ``cap``.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    floor = 3 * max(len(a), len(b))
    if len(a) < 2:  # FIR: support is the tap count
        return max(floor, len(b))
    radius = float(np.max(np.abs(np.roots(a))))
    if not np.isfinite(radius) or radius >= 1.0:
        return cap
    if radius <= 0.0:
        return floor
    settle = int(np.ceil(np.log(tol) / np.log(radius)))
    return int(min(cap, max(floor, settle)))


def filtfilt(
    b: np.ndarray,
    a: np.ndarray,
    x: np.ndarray,
    axis: int = -1,
    padlen: int | None = None,
    engine: str = "auto",
) -> np.ndarray:
    """Apply filter ``(b, a)`` forward and backward along ``axis``.

    The result has zero phase distortion and the squared magnitude
    response of the single-pass filter.  ``padlen`` defaults to
    ``3 * max(len(a), len(b))`` (the MATLAB/scipy default).
    """
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    ntaps = max(len(a), len(b))
    if padlen is None:
        padlen = 3 * ntaps
    if padlen < 0:
        raise ValueError("padlen must be >= 0")
    if x.shape[axis] <= padlen:
        raise ValueError(
            f"signal length {x.shape[axis]} must exceed padlen {padlen}"
        )

    ext = _odd_ext(x, padlen, axis=axis) if padlen > 0 else x
    moved = np.moveaxis(ext, axis, -1)
    y, _ = _forward(b, a, moved, engine=engine)
    y = _backward(b, a, y, engine=engine)
    if padlen > 0:
        y = y[..., padlen:-padlen]
    return np.moveaxis(y, -1, axis)


@functools.lru_cache(maxsize=64)
def _unit_step_state(b: bytes, a: bytes) -> np.ndarray:
    """``lfilter_zi`` of the float64 coefficients ``b`` and ``a`` (as
    bytes), solved once per filter and shared read-only."""
    zi = lfilter_zi(np.frombuffer(b), np.frombuffer(a))
    zi.flags.writeable = False
    return zi


def _steady_state(b: np.ndarray, a: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """The filter state of a step of height ``x0`` held forever (state
    axis first, then ``x0``'s shape): the start that keeps a filter run
    from an edge free of its switch-on transient."""
    zi = _unit_step_state(
        np.asarray(b, dtype=np.float64).tobytes(),
        np.asarray(a, dtype=np.float64).tobytes(),
    )
    return zi.reshape((len(zi),) + (1,) * np.ndim(x0)) * x0


def _forward(
    b: np.ndarray,
    a: np.ndarray,
    x: np.ndarray,
    zi: np.ndarray | None = None,
    engine: str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """``filtfilt``'s forward half over time-last ``x``: continued from
    state ``zi``, or started in steady state at ``x[..., 0]`` when ``zi``
    is None.  Returns ``(y, zf)``; cutting ``x`` anywhere and passing
    ``zf`` on reproduces one call bit for bit."""
    if zi is None:
        zi = _steady_state(b, a, x[..., 0])
    return lfilter(b, a, x, axis=-1, zi=zi, engine=engine)


def _backward(
    b: np.ndarray, a: np.ndarray, y: np.ndarray, engine: str = "auto"
) -> np.ndarray:
    """``filtfilt``'s backward half over time-last forward output ``y``:
    started in steady state at its last sample, run back to its first,
    returned in forward order.  Sample ``i`` is exact when ``y`` ends at
    the record's (odd-extended) end, and otherwise within the settle
    tolerance once ``len(y) - i`` reaches :func:`settle_length`."""
    out, _ = lfilter(
        b, a, y[..., ::-1], axis=-1, zi=_steady_state(b, a, y[..., -1]),
        engine=engine,
    )
    return out[..., ::-1]
