"""Rate conversion: ``resample`` (MATLAB semantics), ``decimate`` and the
underlying ``upfirdn`` primitive — all from scratch.

``resample(x, p, q)`` changes the rate by the rational factor p/q using a
Kaiser-windowed sinc anti-aliasing FIR, with the group delay compensated
so the output is time-aligned with the input (what MATLAB's ``resample``
and the paper's ``Das_resample(X, 1, R)`` do).

Pure decimation (``p == 1``: ``resample(x, 1, q)``, ``decimate`` and the
chunked ``decimate_chunk``) runs through one polyphase kernel that
computes a FIR dot product only for the samples the decimation keeps;
``upfirdn``'s full-rate FFT convolution serves ``p > 1`` and is the
reference the kernel's tests compare against.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.daslib.fft import irfft, next_fast_len, rfft
from repro.daslib.window import get_window


def design_resample_filter(p: int, q: int, half_width: int = 10, beta: float = 5.0) -> np.ndarray:
    """Kaiser-windowed sinc lowpass for p/q conversion (gain ``p``).

    The cutoff is ``min(1/p, 1/q)`` of the upsampled Nyquist; length is
    ``2 * half_width * max(p, q) + 1`` taps.  Designs are memoised, so
    the returned array is shared and read-only.
    """
    return _design_resample_filter(int(p), int(q), int(half_width), float(beta))


@lru_cache(maxsize=32)
def _design_resample_filter(p: int, q: int, half_width: int, beta: float) -> np.ndarray:
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    max_rate = max(p, q)
    cutoff = 1.0 / max_rate  # in units of the upsampled Nyquist
    half_len = half_width * max_rate
    n = np.arange(-half_len, half_len + 1)
    taps = cutoff * np.sinc(cutoff * n)
    taps *= get_window(("kaiser", beta), len(taps))
    # Normalise DC gain to p: unity passband after the 1/p amplitude loss
    # that zero-stuffed upsampling introduces.
    taps *= p / taps.sum()
    taps.setflags(write=False)
    return taps


def _fft_convolve(x: np.ndarray, taps: np.ndarray, axis: int = -1) -> np.ndarray:
    """Full linear convolution along ``axis`` via real FFT."""
    n_out = x.shape[axis] + len(taps) - 1
    nfft = next_fast_len(n_out)
    spec = rfft(x, nfft, axis=axis)
    tap_spec = rfft(taps, nfft)
    shape = [1] * x.ndim
    shape[axis] = len(tap_spec)
    out = irfft(spec * tap_spec.reshape(shape), nfft, axis=axis)
    slicer = [slice(None)] * x.ndim
    slicer[axis] = slice(0, n_out)
    return out[tuple(slicer)]


def upfirdn(taps: np.ndarray, x: np.ndarray, up: int = 1, down: int = 1, axis: int = -1) -> np.ndarray:
    """Upsample by ``up``, FIR filter, downsample by ``down``.

    Matches scipy's output length ``ceil(((n-1)*up + len(taps)) / down)``.
    """
    if up < 1 or down < 1:
        raise ValueError("up and down must be >= 1")
    taps = np.asarray(taps, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    moved = np.moveaxis(x, axis, -1)
    n = moved.shape[-1]
    if up > 1:
        stuffed = np.zeros(moved.shape[:-1] + ((n - 1) * up + 1,))
        stuffed[..., ::up] = moved
    else:
        stuffed = moved
    full = _fft_convolve(stuffed, taps, axis=-1)
    out_len = -(-((n - 1) * up + len(taps)) // down)
    sampled = full[..., ::down][..., :out_len]
    if sampled.shape[-1] < out_len:
        pad = out_len - sampled.shape[-1]
        sampled = np.concatenate(
            [sampled, np.zeros(sampled.shape[:-1] + (pad,))], axis=-1
        )
    return np.moveaxis(sampled, -1, axis)


def resample(
    x: np.ndarray,
    p: int,
    q: int,
    axis: int = -1,
    half_width: int = 10,
    beta: float = 5.0,
) -> np.ndarray:
    """Resample ``x`` at ``p/q`` times the original rate (MATLAB style).

    Output length is ``ceil(n * p / q)``; the FIR group delay is
    compensated so features stay time-aligned.  ``p == 1`` is pure
    decimation and runs through :func:`decimate_chunk`.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if p == 1:
        moved = np.moveaxis(np.asarray(x), axis, -1)
        out = decimate_chunk(moved, q, 0, half_width=half_width, beta=beta)
        return np.moveaxis(out, -1, axis)
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    taps = design_resample_filter(p, q, half_width=half_width, beta=beta)
    half_len = (len(taps) - 1) // 2

    # Delay in output samples: half_len / q (input upsampled by p).
    moved = np.moveaxis(x, axis, -1)
    out_len = -(-n * p // q)
    full = upfirdn(taps, moved, up=p, down=1, axis=-1)
    # Compensate delay at the upsampled rate, then decimate by q.
    aligned = full[..., half_len : half_len + n * p]
    if aligned.shape[-1] < out_len * q:
        pad = out_len * q - aligned.shape[-1]
        aligned = np.concatenate(
            [aligned, np.zeros(aligned.shape[:-1] + (pad,))], axis=-1
        )
    sampled = aligned[..., ::q][..., :out_len]
    return np.moveaxis(sampled, -1, axis)


# -- the decimation kernel ---------------------------------------------------

#: Smallest frame (input samples per GEMM row): ``per_frame * q >= 64``
#: keeps the inner dimension wide enough for BLAS at small ``q``.
_MIN_FRAME = 64
#: Input samples copied into scratch per GEMM (float64: 1 MiB).  The
#: kernel's working memory is this block plus its product — never a
#: function of the chunk length.
_BLOCK_SAMPLES = 1 << 17
#: Multiply-adds per GEMM call.  A threaded BLAS hands anything much
#: larger to its own worker pool, whose spinning workers take the cores
#: from the executor's row threads (measured: Alg. 3 at ``threads=2`` ran
#: slower than with the FFT kernel); strips this small stay on the calling
#: thread and still run at full single-core GEMM speed.
_GEMM_WORK = 1 << 18


class DecimationBank(NamedTuple):
    """The decimate-by-``q`` FIR laid out for framed evaluation.

    The absolute sample axis is cut into frames of ``per_frame * q``
    samples (frame ``f`` owns outputs ``[f * per_frame, (f + 1) *
    per_frame)``).  ``matrix[u, (d + reach) * per_frame + t]`` is the tap
    that sample ``u`` of frame ``f`` contributes to output ``t`` of frame
    ``f + d`` — zero where that output's support ``[j*q - half_len,
    j*q + half_len]`` does not hold the sample.
    """

    q: int
    half_len: int
    per_frame: int
    reach: int
    matrix: np.ndarray


def decimation_bank(q: int, half_width: int = 10, beta: float = 5.0) -> DecimationBank:
    """The (memoised, read-only) :class:`DecimationBank` of
    ``design_resample_filter(1, q, half_width, beta)``."""
    return _decimation_bank(int(q), int(half_width), float(beta))


@lru_cache(maxsize=32)
def _decimation_bank(q: int, half_width: int, beta: float) -> DecimationBank:
    if q < 2:
        raise ValueError("a decimation bank needs q >= 2")
    taps = design_resample_filter(1, q, half_width, beta)
    half_len = (len(taps) - 1) // 2
    per_frame = -(-_MIN_FRAME // q)
    frame = per_frame * q
    reach = -(-half_width // per_frame)
    u = np.arange(frame)[:, None, None]
    d = np.arange(-reach, reach + 1)[None, :, None]
    t = np.arange(per_frame)[None, None, :]
    # output j = (f + d) * per_frame + t is centred on sample j * q; the
    # sample sits at f * frame + u, so the tap index is their distance.
    index = half_len + d * frame + t * q - u
    inside = (index >= 0) & (index < len(taps))
    matrix = np.where(inside, taps[np.clip(index, 0, len(taps) - 1)], 0.0)
    matrix = matrix.reshape(frame, -1)
    matrix.setflags(write=False)
    return DecimationBank(q, half_len, per_frame, reach, matrix)


def _framed_decimate(
    rows: np.ndarray, abs_start: int, bank: DecimationBank, scrub: bool
) -> np.ndarray:
    """Every output frame the chunk touches, ``(n_rows, n_frames *
    per_frame)``: one GEMM per block of frames against the bank, then the
    per-offset products summed into the output frames they belong to.

    Frames sit on the absolute lattice and each output accumulates its
    contributions in increasing input-frame order from zero, so where a
    block begins does not change the order of any sum.  ``scrub`` replaces
    non-finite samples by zero in the scratch copy — the caller poisons
    the affected outputs itself.
    """
    n_rows, n = rows.shape
    per_frame, reach = bank.per_frame, bank.reach
    frame = per_frame * bank.q
    width = bank.matrix.shape[1]
    f0 = abs_start // frame
    n_frames = -(-(abs_start + n) // frame) - f0
    out = np.zeros((n_rows, n_frames, per_frame))
    frames_per_block = max(1, min(n_frames, _BLOCK_SAMPLES // frame))
    rows_per_block = max(1, min(n_rows, _BLOCK_SAMPLES // (frames_per_block * frame)))
    strip = max(1, _GEMM_WORK // (frame * width))
    scratch = np.empty(rows_per_block * frames_per_block * frame)
    product = np.empty(rows_per_block * frames_per_block * width)
    for r0 in range(0, n_rows, rows_per_block):
        r1 = min(n_rows, r0 + rows_per_block)
        for fa in range(0, n_frames, frames_per_block):
            nb = min(n_frames, fa + frames_per_block) - fa
            # chunk-relative span of the block; zero beyond the chunk
            lo = (f0 + fa) * frame - abs_start
            hi = lo + nb * frame
            clo, chi = max(lo, 0), min(hi, n)
            block = scratch[: (r1 - r0) * nb * frame].reshape(r1 - r0, nb * frame)
            block[:, : clo - lo] = 0.0
            block[:, chi - lo :] = 0.0
            block[:, clo - lo : chi - lo] = rows[r0:r1, clo:chi]
            if scrub:
                np.nan_to_num(block, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
            prod = product[: (r1 - r0) * nb * width].reshape((r1 - r0) * nb, width)
            framed = block.reshape(-1, frame)
            for m in range(0, len(framed), strip):
                np.matmul(framed[m : m + strip], bank.matrix, out=prod[m : m + strip])
            prod = prod.reshape(r1 - r0, nb, 2 * reach + 1, per_frame)
            for d in range(reach, -reach - 1, -1):
                # input frames [a, b) of the block land on output frames
                # shifted by d; drop those outside the chunk's frames
                a = max(0, -(fa + d))
                b = min(nb, n_frames - fa - d)
                if a < b:
                    out[r0:r1, fa + d + a : fa + d + b] += prod[:, a:b, d + reach]
    return out.reshape(n_rows, n_frames * per_frame)


def decimate_chunk(
    x: np.ndarray,
    q: int,
    abs_start: int,
    half_width: int = 10,
    beta: float = 5.0,
    bank: DecimationBank | None = None,
) -> np.ndarray:
    """``resample(whole, 1, q)`` restricted to a chunk of the whole series.

    ``x`` holds samples ``[abs_start, abs_start + len)`` of a longer
    record along the last axis.  Whole-array ``resample(x, 1, q)`` emits
    one output per absolute input index ``j * q``, each a FIR dot product
    centred there; this computes exactly those outputs whose centre falls
    inside the chunk — and nothing else — keeping the global decimation
    phase regardless of where the chunk starts.  Outputs whose FIR support
    extends past the chunk edge see zeros there — identical to whole-array
    behaviour at the true record ends, approximate elsewhere (callers
    provide ``resample_halo`` samples of overlap and discard the fringe).

    A non-finite input sample turns exactly the outputs whose support
    ``[j*q - half_len, j*q + half_len]`` holds it into NaN; every other
    output equals the clean record's.  ``bank`` is a prebuilt
    :func:`decimation_bank` for ``q`` (operators hold theirs).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if abs_start < 0:
        raise ValueError("abs_start must be >= 0")
    x = np.asarray(x)
    if q == 1:
        return x.astype(np.float64)
    if bank is None:
        bank = decimation_bank(q, half_width, beta)
    elif bank.q != q:
        raise ValueError(f"bank decimates by {bank.q}, not {q}")
    n = x.shape[-1]
    rows = x.reshape(math.prod(x.shape[:-1]), n)
    j_lo, j_hi = -(-abs_start // q), -(-(abs_start + n) // q)
    first = j_lo - abs_start // (bank.per_frame * q) * bank.per_frame
    keep = slice(first, first + j_hi - j_lo)
    with np.errstate(invalid="ignore"):  # inf * 0 is dealt with below
        out = _framed_decimate(rows, abs_start, bank, scrub=False)[:, keep]
    # Any non-finite sample reaches some kept output (every chunk sample
    # is in one's support), so a finite result means a clean chunk.
    if not np.isfinite(out).all():
        bad = ~np.isfinite(rows)
        if bad.any():
            out = _framed_decimate(rows, abs_start, bank, scrub=True)[:, keep]
            seen = np.zeros((rows.shape[0], n + 1), dtype=np.int32)
            np.cumsum(bad, axis=1, out=seen[:, 1:])
            centre = np.arange(j_lo, j_hi) * q - abs_start
            lo = np.clip(centre - bank.half_len, 0, n)
            hi = np.clip(centre + bank.half_len + 1, 0, n)
            out[seen[:, hi] != seen[:, lo]] = np.nan
    return out.reshape(x.shape[:-1] + (j_hi - j_lo,))


def resample_halo(q: int, half_width: int = 10) -> int:
    """Input samples of context a streamed ``decimate_chunk`` needs per side."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return 0
    return half_width * q + q


def decimate(x: np.ndarray, factor: int, axis: int = -1) -> np.ndarray:
    """Lowpass then keep every ``factor``-th sample."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return resample(x, 1, factor, axis=axis)
