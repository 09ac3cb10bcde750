"""Streaming operators for the Algorithm 3 DSP chain.

Each class wraps one ``daslib`` stage in the :class:`~repro.core.pipeline.Operator`
overlap contract, so the streaming executor can run the chain chunk by
chunk and stitch the ghost zones away:

* :class:`DetrendOp` — positional (needs the *global* linear fit, so it
  carries a streaming pre-pass accumulating ``Σx`` and ``Σ t·x``),
* :class:`TaperOp` — positional (evaluates the whole-record Tukey window
  on the chunk's absolute slice),
* :class:`FiltFiltOp` — halo from the filter's pole radius
  (:func:`~repro.daslib.filtfilt.settle_length`),
* :class:`DecimateOp` — phase-aligned chunked ``resample(x, 1, q)``,
* :class:`FFTSink` — terminal accumulator: collects the decimated stream
  and transforms once (spectra must see the whole record),
* :class:`WhitenOp` / :class:`CorrelateOp` — post-sink spectrum stages.

Every operator also implements the MATLAB-faithful interpreted
per-channel loop (``ctx.interpreted``), which is how
:func:`~repro.core.pipeline.run_materialized` reproduces the Fig. 9
baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import OpContext, Operator, SinkOp
from repro.daslib import (
    abscorr,
    decimate_chunk,
    decimation_bank,
    detrend,
    fft,
    filtfilt,
    next_fast_len,
    resample_halo,
    settle_length,
    taper,
    tukey_slice,
    whiten,
)
from repro.daslib.filtfilt import _backward, _forward, _odd_ext
from repro.daslib.lfilter import compiled_kernel
from repro.errors import ConfigError

__all__ = [
    "DetrendOp",
    "TaperOp",
    "FiltFiltOp",
    "DecimateOp",
    "FFTSink",
    "WhitenOp",
    "CorrelateOp",
]


class DetrendOp(Operator):
    """``Das_detrend``: subtract the whole-record least-squares line.

    The fit is a *global* reduction, so streaming needs a pre-pass: two
    running sums per channel (``Σx`` and ``Σ t·x``) determine the same
    line the whole-array fit produces, and ``apply`` subtracts it on any
    chunk using absolute sample positions.
    """

    name = "detrend"
    needs_prepass = True
    stream_safe = False  # the fit is a whole-record statistic

    def prepass_init(self, n_channels: int, total_in: int) -> dict:
        return {
            "total": total_in,
            "sx": np.zeros(n_channels),
            "stx": np.zeros(n_channels),
        }

    def prepass_update(self, acc: dict, chunk: np.ndarray, start: int) -> None:
        t = np.arange(start, start + chunk.shape[-1], dtype=np.float64)
        acc["sx"] += chunk.sum(axis=-1)
        acc["stx"] += np.einsum("ct,t->c", chunk, t)

    def prepass_finalize(self, acc: dict) -> dict:
        total = acc["total"]
        mean = acc["sx"] / total
        t_mean = (total - 1) / 2.0
        if total < 2:
            slope = np.zeros_like(mean)
        else:
            # Σ (t - t̄)² for t = 0..T-1 in closed form.
            denom = total * (total * total - 1.0) / 12.0
            slope = (acc["stx"] - t_mean * acc["sx"]) / denom
        return {"mean": mean, "slope": slope, "t_mean": t_mean}

    def apply(self, data: np.ndarray, ctx: OpContext) -> np.ndarray:
        if ctx.whole:
            if ctx.interpreted:
                out = np.empty_like(data)
                for channel in range(data.shape[0]):  # interpreted channel loop
                    out[channel] = detrend(data[channel])
                return out
            return detrend(data, axis=-1)
        state = ctx.state
        if state is None or "mean" not in state:
            raise ConfigError("streamed detrend needs its pre-pass state")
        rows = slice(ctx.channel_lo, ctx.channel_lo + data.shape[0])
        mean = state["mean"][rows, None]
        slope = state["slope"][rows, None]
        t = np.arange(ctx.start, ctx.stop, dtype=np.float64) - state["t_mean"]
        return data - (mean + slope * t)


class TaperOp(Operator):
    """``Das_taper``: the whole-record Tukey window, evaluated on the
    chunk's absolute sample slice so streamed and whole outputs agree
    bit for bit."""

    name = "taper"
    stream_safe = False  # the window is evaluated against the final length

    def __init__(self, fraction: float):
        if not (0.0 < fraction <= 0.5):
            raise ConfigError("taper fraction must be in (0, 0.5]")
        self.fraction = float(fraction)

    def apply(self, data: np.ndarray, ctx: OpContext) -> np.ndarray:
        if ctx.interpreted and ctx.whole:
            out = np.empty_like(data)
            for channel in range(data.shape[0]):
                out[channel] = taper(data[channel], self.fraction)
            return out
        window = tukey_slice(ctx.total, 2.0 * self.fraction, ctx.start, ctx.stop)
        return data * window[None, :]


class FiltFiltOp(Operator):
    """``Das_filtfilt``: zero-phase IIR filtering with a pole-radius halo.

    The forward-backward transient of an IIR filter decays like
    ``r**n`` with ``r`` the largest pole magnitude; inside a chunk we pad
    with :func:`~repro.daslib.filtfilt.settle_length` real samples per
    side so the retained core matches whole-array ``filtfilt`` to the
    settle tolerance.  At the true record edges the clamped read
    reproduces the whole-array odd-reflection padding exactly.

    The forward pass is causal, so over an unbounded record it needs no
    left halo once its state is carried: :meth:`forward_half` and
    :meth:`backward_half` are :meth:`apply` split in two, and
    :class:`~repro.core.pipeline.IncrementalRunner` runs the first once
    per sample and only the second per emission (DESIGN §8).
    """

    name = "filtfilt"

    def __init__(self, b: np.ndarray, a: np.ndarray, tol: float = 1e-10):
        self.b = np.atleast_1d(np.asarray(b, dtype=np.float64))
        self.a = np.atleast_1d(np.asarray(a, dtype=np.float64))
        settle = settle_length(self.b, self.a, tol=tol)
        self.halo = (settle, settle)
        #: ``filtfilt``'s odd-extension length at each record edge.
        self.padlen = 3 * max(len(self.a), len(self.b))
        # Import the compiled kernel now, so a plan or service pays for it
        # when it is built rather than on its first chunk.
        compiled_kernel()

    def forward_half(
        self, x: np.ndarray, zi: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The forward pass over the ``(channels, n)`` piece ``x`` of a
        record, continued from state ``zi``; returns ``(y, zf)``, ``y``
        over ``x``'s samples.  ``zi=None`` means ``x`` opens the record
        (``n > padlen``): the pass starts as ``filtfilt``'s does, over the
        odd extension of its first ``padlen + 1`` samples.  Pieces chained
        through ``zf`` equal one pass over their concatenation bit for
        bit."""
        if zi is not None:
            return _forward(self.b, self.a, x, zi)
        p = self.padlen
        left = _odd_ext(x[:, : p + 1], p)[:, :p]
        y, zf = _forward(self.b, self.a, np.concatenate([left, x], axis=1))
        return y[:, p:], zf

    def backward_half(
        self,
        y: np.ndarray,
        end: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """The backward pass over forward output ``y``, returned over its
        samples.  It starts in steady state at ``y``'s last sample, so
        sample ``i`` is within the settle tolerance once ``len(y) - i``
        reaches the halo.  ``end=(tail, zf)`` says ``y`` ends the record:
        the forward pass is first continued from ``zf`` over the odd
        extension of ``tail`` (the record's last ``padlen + 1`` raw
        samples), so the backward pass starts at the true end, as
        ``filtfilt``'s does, and every sample is exact."""
        if end is None:
            return _backward(self.b, self.a, y)
        tail, zf = end
        p = self.padlen
        ext, _ = _forward(self.b, self.a, _odd_ext(tail, p)[:, -p:], zf)
        full = _backward(self.b, self.a, np.concatenate([y, ext], axis=1))
        return full[:, : y.shape[1]]

    def apply(self, data: np.ndarray, ctx: OpContext) -> np.ndarray:
        if ctx.interpreted:
            out = np.empty_like(data)
            for channel in range(data.shape[0]):
                # engine="numpy": the interpreted recursion, like a
                # MATLAB script loop (no compiled filter kernel).
                out[channel] = filtfilt(self.b, self.a, data[channel], engine="numpy")
            return out
        return filtfilt(self.b, self.a, data, axis=-1)


class DecimateOp(Operator):
    """``Das_resample(X, 1, q)``: phase-aligned chunked decimation.

    Whole-array ``resample`` emits one output per absolute input index
    ``j*q``; :func:`~repro.daslib.resample.decimate_chunk` computes
    exactly the outputs whose centre falls inside the chunk, so chunks
    tile the decimated axis with the global phase intact.  The operator
    holds its (memoised) polyphase tap bank, so building one per request
    costs a cache lookup, not a filter design.
    """

    name = "resample"

    def __init__(self, q: int, half_width: int = 10, beta: float = 5.0):
        if q < 1:
            raise ConfigError("q must be >= 1")
        self.q = int(q)
        self.decimate = self.q
        halo = resample_halo(self.q, half_width=half_width)
        self.halo = (halo, halo)
        self.bank = (
            decimation_bank(self.q, half_width, beta) if self.q > 1 else None
        )

    def apply(self, data: np.ndarray, ctx: OpContext) -> np.ndarray:
        if ctx.interpreted and ctx.whole:
            out_len = -(-data.shape[-1] // self.q)
            out = np.empty((data.shape[0], out_len))
            for channel in range(data.shape[0]):
                out[channel] = decimate_chunk(
                    data[channel], self.q, 0, bank=self.bank
                )
            return out
        return decimate_chunk(data, self.q, ctx.start, bank=self.bank)


class FFTSink(SinkOp):
    """``Das_fft``: accumulate the decimated stream, transform once.

    Spectra need the whole (decimated) record, so the sink is the point
    where streaming re-materialises — but at ``1/q`` of the raw rate,
    which is the memory win chunked execution buys for Algorithm 3.
    ``nfft=None`` uses ``next_fast_len`` of the record length, matching
    :func:`~repro.core.interferometry.interferometry_block`.
    """

    name = "fft"

    def __init__(self, nfft: int | None = None):
        self.nfft = nfft

    def init(self, n_channels: int, total_in: int, fs_in: float) -> dict:
        return {"pieces": [], "seen": 0, "total": total_in}

    def consume(self, state: dict, chunk: np.ndarray, ctx: OpContext) -> None:
        if ctx.start != state["seen"]:
            raise ConfigError(
                f"fft sink fed out of order: got [{ctx.start}, {ctx.stop}) "
                f"after {state['seen']} samples"
            )
        state["pieces"].append(np.ascontiguousarray(chunk))
        state["seen"] = ctx.stop

    def finalize(self, state: dict) -> np.ndarray:
        if state["seen"] != state["total"]:
            raise ConfigError(
                f"fft sink saw {state['seen']} of {state['total']} samples"
            )
        pieces = state["pieces"]
        series = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=-1)
        nfft = self.nfft if self.nfft is not None else next_fast_len(series.shape[-1])
        return fft(series, n=nfft, axis=-1)

    def resident_bytes(self, state: dict) -> int:
        return sum(piece.nbytes for piece in state["pieces"])


class WhitenOp(Operator):
    """Spectral whitening of the accumulated spectra (post-sink stage)."""

    name = "whiten"

    def apply(self, data: np.ndarray, ctx: OpContext) -> np.ndarray:
        return np.asarray(whiten(data, axis=-1))


class CorrelateOp(Operator):
    """Absolute correlation of each channel's spectrum with ``Mfft``.

    With ``master_fft=None`` the master row of the incoming spectra is
    used (the single-block semantics of
    :func:`~repro.core.interferometry.interferometry_block`); a
    precomputed spectrum is the shared node-level state of the
    distributed engine.
    """

    name = "correlate"
    stream_safe = False  # abscorr reduces the whole time axis to one value

    def __init__(
        self, master_fft: np.ndarray | None = None, master_channel: int = 0
    ):
        self.master_fft = master_fft
        self.master_channel = int(master_channel)

    def apply(self, data: np.ndarray, ctx: OpContext) -> np.ndarray:
        master = (
            self.master_fft
            if self.master_fft is not None
            else data[self.master_channel]
        )
        if ctx.interpreted:
            out = np.empty(data.shape[0])
            for channel in range(data.shape[0]):
                out[channel] = abscorr(data[channel], master)
            return out
        return np.asarray(abscorr(data, master[None, :], axis=-1))
