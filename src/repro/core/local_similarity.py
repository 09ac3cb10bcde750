"""Earthquake detection via local similarity (paper Algorithm 2).

For each channel and each time window, local similarity measures how
well the window correlates with the best-aligned window on each
neighbouring channel (±K channels, over ±L lags), averaging the two
sides:

    LS(c, t) = ( max_l |corr(W(c,t), W(c+K, t+l))|
               + max_l |corr(W(c,t), W(c-K, t+l))| ) / 2

Coherent signals (earthquake wavefronts, passing cars) light up; channel-
local noise does not.  Two implementations:

* :func:`local_similarity_udf` — the literal Algorithm 2 as an ArrayUDF
  user-defined function over a :class:`~repro.arrayudf.stencil.Stencil`:
  the tested definition of the map,
* :func:`similarity_at` / :func:`local_similarity_block` — the vectorised
  kernel the engines call in production: one gather of the samples the
  window grid touches per strip of starts, every lag window a strided
  view of it, norms only at the ``start ± L`` positions used, and each
  neighbour side one reduction over all lags.  Measured ~800x the UDF
  (12 ch x 3060 samples, default config: 1.3 s vs 1.6 ms) with scratch
  bounded by :data:`STRIP_BYTES`, not the block.

Tests assert the two agree to 1e-12 over the parameter grid, and that
the kernel is bit-identical under any strip split, channel partition or
enclosing block.  One deliberate difference: a zero-energy window, or
one holding NaN/Inf, scores 0 against everything — never NaN — and
touches no cell whose windows do not hold it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.arrayudf.stencil import Stencil
from repro.core.pipeline import OpContext, Operator
from repro.daslib.correlate import abscorr
from repro.daslib.moving import sliding_windows
from repro.errors import ConfigError


@dataclass(frozen=True)
class LocalSimilarityConfig:
    """Algorithm 2 parameters.

    ``half_window`` is the paper's M (window width 2M+1); ``channel_offset``
    is K (neighbour distance); ``half_lag`` is L (2L+1 candidate
    alignments); ``stride`` is the hop between window centres (the paper
    samples a window per output cell; stride M keeps ~50 % overlap).
    """

    half_window: int = 25
    channel_offset: int = 1
    half_lag: int = 5
    stride: int = 25

    def __post_init__(self) -> None:
        if self.half_window < 1 or self.half_lag < 0:
            raise ConfigError("need half_window >= 1 and half_lag >= 0")
        if self.channel_offset < 1:
            raise ConfigError("channel_offset (K) must be >= 1")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")

    @property
    def window_len(self) -> int:
        return 2 * self.half_window + 1

    @property
    def time_halo(self) -> int:
        """Samples of time context a window centre needs on each side."""
        return self.half_window + self.half_lag

    @property
    def channel_halo(self) -> int:
        return self.channel_offset

    def centers(self, n_samples: int) -> np.ndarray:
        """Valid window-centre sample indices for a series of length n."""
        lo = self.time_halo
        hi = n_samples - self.time_halo
        if hi <= lo:
            return np.zeros(0, dtype=int)
        return np.arange(lo, hi, self.stride)


def local_similarity_udf(
    config: LocalSimilarityConfig,
) -> Callable[[Stencil], float]:
    """Algorithm 2, transcribed: the UDF DASSA hands to ApplyMT."""
    M = config.half_window
    K = config.channel_offset
    L = config.half_lag

    def LocalSimi(S: Stencil) -> float:
        W = S.window((0, 0), (-M, M))  # current window via S
        c_plus = 0.0
        c_minus = 0.0
        for lag in range(-L, L + 1):
            W1 = S.window(+K, (lag - M, lag + M))
            W2 = S.window(-K, (lag - M, lag + M))
            c_plus = max(c_plus, float(abscorr(W, W1)))
            c_minus = max(c_minus, float(abscorr(W, W2)))
        return 0.5 * (c_plus + c_minus)

    return LocalSimi


#: Bytes of gathered samples one strip of window starts may hold; the
#: kernel's whole scratch stays within a small multiple of it whatever
#: the record length.
STRIP_BYTES = 1 << 20


def similarity_at(
    data: np.ndarray,
    config: LocalSimilarityConfig,
    starts: np.ndarray,
    channel_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """The vectorised similarity kernel at explicit window-start indices.

    ``starts`` are window start positions (centre − M) within ``data``;
    every shifted neighbour window (``start ± L``) must fit inside the
    block.  Shared by :func:`local_similarity_block` (whole-array grid)
    and :class:`LocalSimilarityOp` (a chunk's slice of the same grid),
    which is what makes streamed output identical to whole-array output.

    Per strip of starts the samples the grid touches are gathered once,
    ``(rows, starts, w + 2L)``; every lag window is then a strided view of
    that gather, norms are taken at the ``start ± L`` positions only, and
    each neighbour side is one reduction over all lags with channel ×
    start flattened into a single batch axis.  Every cell is reduced from
    its own windows' contents in a fixed order, so the result does not
    depend on the strip, the channel partition or the enclosing block.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigError("local similarity needs a 2-D (channels, time) block")
    n_channels, n_samples = data.shape
    K = config.channel_offset
    L = config.half_lag
    wlen = config.window_len
    c_lo, c_hi = channel_range if channel_range is not None else (K, n_channels - K)
    if not (0 <= c_lo - K and c_hi + K <= n_channels and c_lo <= c_hi):
        raise ConfigError(
            f"channel range ({c_lo}, {c_hi}) ±{K} outside block of {n_channels}"
        )
    starts = np.asarray(starts, dtype=int)
    if len(starts) == 0 or c_hi == c_lo:
        return np.zeros((max(0, c_hi - c_lo), len(starts)))
    if starts.min() - L < 0 or starts.max() + L + wlen > n_samples:
        raise ConfigError(
            f"window starts [{starts.min()}, {starts.max()}] ±{L} with width "
            f"{wlen} outside block of {n_samples} samples"
        )

    rows = data[c_lo - K : c_hi + K]
    n_rows, n_eval = len(rows), c_hi - c_lo
    span = np.arange(wlen + 2 * L)
    strip = max(1, STRIP_BYTES // (8 * n_rows * len(span)))
    out = np.empty((n_eval, len(starts)))
    for s0 in range(0, len(starts), strip):
        first = starts[s0 : s0 + strip] - L
        S = len(first)
        # Batch index n = row * S + start: a channel's ±K neighbours are
        # the same slice of the batch axis shifted by K * S.
        seg = np.take(rows, first[:, None] + span, axis=1).reshape(n_rows * S, -1)
        windows = sliding_windows(seg, wlen)  # (n, 2L + 1, wlen), a view
        norms = np.sqrt(np.einsum("nlw,nlw->nl", windows, windows))
        # A zero-energy window, or one holding NaN/Inf, correlates 0 with
        # everything instead of poisoning the cell.
        usable = (norms > 0) & (norms < np.inf)
        all_usable = bool(usable.all())
        centre = slice(K * S, (n_rows - K) * S)
        ref = seg[centre, L : L + wlen]
        best = np.zeros(n_eval * S)
        for side in (slice(2 * K * S, None), slice(0, (n_rows - 2 * K) * S)):
            corr = np.einsum("nw,nlw->nl", ref, windows[side])
            np.abs(corr, out=corr)
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                corr /= norms[centre, L : L + 1] * norms[side]
            if not all_usable:
                corr[~(usable[centre, L : L + 1] & usable[side])] = 0.0
            best += corr.max(axis=1)
        out[:, s0 : s0 + S] = (0.5 * best).reshape(n_eval, S)
    return out


def local_similarity_block(
    data: np.ndarray,
    config: LocalSimilarityConfig,
    channel_range: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised local-similarity map.

    Returns ``(similarity, centers)`` where ``similarity`` has shape
    ``(channels_evaluated, len(centers))`` and ``channel_range`` bounds
    the evaluated channels (default: all channels with both ±K
    neighbours in the block).  Channels at the array edge are skipped
    exactly as the ghost-zone engine would.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigError("local similarity needs a 2-D (channels, time) block")
    centers = config.centers(data.shape[-1])
    similarity = similarity_at(
        data, config, centers - config.half_window, channel_range=channel_range
    )
    return similarity, centers


# ---------------------------------------------------------------------------
# Algorithm 2 as a streaming operator
# ---------------------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class LocalSimilarityOp(Operator):
    """Algorithm 2 on the streaming executor.

    Output index ``j`` is the window centred at sample
    ``time_halo + j * stride`` — the exact whole-array grid of
    :meth:`LocalSimilarityConfig.centers` — so chunks tile the centre
    axis and streamed maps equal whole-array maps sample for sample.
    The operator also declares a ±K *channel* halo: output channel ``c``
    needs input channels ``c .. c + 2K`` (centre ``c + K``), which is
    how thread partitions of the output rows stay independent.
    """

    name = "local_similarity"

    def __init__(self, config: LocalSimilarityConfig):
        self.config = config
        self.channel_halo = config.channel_offset
        th = config.time_halo
        self.halo = (th, th)

    # -- geometry -----------------------------------------------------------
    def out_total(self, total_in: int) -> int:
        return len(self.config.centers(total_in))

    def out_fs(self, fs_in: float) -> float:
        return fs_in / self.config.stride if fs_in else fs_in

    def out_core(self, lo: int, hi: int) -> tuple[int, int]:
        th, s = self.config.time_halo, self.config.stride
        return _ceil_div(lo - th, s), _ceil_div(hi - th, s)

    def out_full(self, a: int, b: int) -> tuple[int, int]:
        th, s = self.config.time_halo, self.config.stride
        return _ceil_div(a, s), _ceil_div(b - 2 * th, s)

    def in_needed(self, lo: int, hi: int) -> tuple[int, int]:
        th, s = self.config.time_halo, self.config.stride
        return lo * s, (hi - 1) * s + 2 * th + 1

    # -- execution ----------------------------------------------------------
    def apply(self, data: np.ndarray, ctx: OpContext) -> np.ndarray:
        cfg = self.config
        th, s = cfg.time_halo, cfg.stride
        # ctx.total is only the right-edge clamp: windows never read past
        # their declared halo, so incremental execution stays exact.
        n_out = self.out_total(ctx.total)
        j_lo = min(max(_ceil_div(ctx.start, s), 0), n_out)
        j_hi = min(max(_ceil_div(ctx.stop - 2 * th, s), j_lo), n_out)
        # Window start (centre − M) in block-local coordinates.
        starts = cfg.half_lag + np.arange(j_lo, j_hi) * s - ctx.start
        K = cfg.channel_offset
        return similarity_at(
            data, cfg, starts, channel_range=(K, data.shape[0] - K)
        )
