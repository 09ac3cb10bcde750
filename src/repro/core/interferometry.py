"""Traffic-noise / ambient-noise interferometry (paper Algorithm 3).

The most expensive stage of the Dou et al. (2017) imaging pipeline:
convert raw DAS noise into per-channel noise cross-correlations against
a *master channel* (virtual source).  Per channel:

    detrend → bandpass filtfilt → resample → FFT → correlate with Mfft

Entry points:

* :func:`traffic_noise_udf` — Algorithm 3 verbatim, as an ArrayUDF UDF
  over a whole-channel stencil,
* :func:`interferometry_block` — the vectorised batch kernel (all
  channels at once; what the engines run),
* :func:`noise_correlation_functions` — the extended product: time-
  domain NCFs per channel (inverse FFT of the whitened cross-spectrum),
  which is what the geophysicist actually stacks into a virtual shot
  gather,
* :func:`interferometry_operators` — the same algorithm as an operator
  chain for the streaming executor, and :func:`master_bound_operators`,
  the one function that reads the master channel of a source and binds
  its spectrum to that chain.  Nothing here runs a chain: an analysis
  becomes a run in :class:`~repro.core.framework.AnalysisPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.arrayudf.stencil import Stencil
from repro.daslib import (
    abscorr,
    butter,
    detrend,
    fft,
    filtfilt,
    irfft,
    next_fast_len,
    resample,
    rfft,
    taper,
    whiten,
)
from repro.errors import ConfigError
from repro.storage.chunks import ChunkSource


@dataclass(frozen=True)
class InterferometryConfig:
    """Algorithm 3 parameters (defaults follow Dou et al.'s processing:
    0.5-12 Hz band, decimation to ~4x the high corner)."""

    fs: float = 500.0
    band: tuple[float, float] = (0.5, 12.0)
    filter_order: int = 4
    resample_q: int = 10  # keep 1/q of the samples
    master_channel: int = 0
    taper_fraction: float = 0.05
    whiten_spectra: bool = False

    def __post_init__(self) -> None:
        if self.fs <= 0:
            raise ConfigError("fs must be positive")
        lo, hi = self.band
        if not (0 < lo < hi < self.fs / 2):
            raise ConfigError(
                f"band {self.band} must lie inside (0, Nyquist={self.fs / 2})"
            )
        if self.resample_q < 1 or self.filter_order < 1:
            raise ConfigError("resample_q and filter_order must be >= 1")
        if self.fs / self.resample_q < 2 * hi:
            raise ConfigError(
                f"decimated rate {self.fs / self.resample_q} Hz would alias the "
                f"{hi} Hz corner"
            )

    @property
    def out_fs(self) -> float:
        return self.fs / self.resample_q

    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``Das_butter(n, fc)`` design of Algorithm 3."""
        return butter(self.filter_order, self.band, "bandpass", fs=self.fs)


def preprocess(data: np.ndarray, config: InterferometryConfig) -> np.ndarray:
    """The per-channel preprocessing chain (detrend → taper → bandpass →
    resample), vectorised over channels.  Input ``(channels, samples)``
    or 1-D."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    b, a = config.coefficients()
    stage = detrend(data, axis=-1)  # Das_detrend
    if config.taper_fraction > 0:
        stage = taper(stage, config.taper_fraction, axis=-1)
    stage = filtfilt(b, a, stage, axis=-1)  # Das_filtfilt
    stage = resample(stage, 1, config.resample_q, axis=-1)  # Das_resample
    return stage


def master_spectrum(
    data: np.ndarray, config: InterferometryConfig, nfft: int | None = None
) -> np.ndarray:
    """``Mfft``: the preprocessed, transformed master channel."""
    master = preprocess(data, config)[0]
    if nfft is None:
        nfft = next_fast_len(len(master))
    spec = fft(master, n=nfft)
    if config.whiten_spectra:
        spec = whiten(spec)
    return spec


def traffic_noise_udf(
    config: InterferometryConfig, master_fft: np.ndarray, series_len: int
) -> Callable[[Stencil], float]:
    """Algorithm 3 verbatim: the UDF over a whole-channel window.

    The stencil's cell is a channel's first sample; ``S(0, 0:W-1)``
    extracts the channel's series, exactly as the paper writes it.
    """
    W = series_len

    def TrafficNoiseUDF(S: Stencil) -> float:
        w0 = S.window(0, (0, W - 1))  # time series per channel
        w3 = preprocess(w0, config)[0]  # detrend/filtfilt/resample
        wfft = fft(w3, n=len(master_fft))  # Das_fft
        return float(abscorr(wfft, master_fft))  # vs the master channel

    return TrafficNoiseUDF


def interferometry_block(
    data: np.ndarray,
    config: InterferometryConfig,
    master_fft: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorised Algorithm 3 over a ``(channels, samples)`` block.

    Returns one absolute correlation per channel.  ``master_fft`` may be
    precomputed (the engine computes it once per node — the shared state
    whose duplication is Fig. 8's memory story); otherwise the
    configured master channel of this block is used.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigError("interferometry needs a 2-D (channels, time) block")
    processed = preprocess(data, config)
    nfft = (
        len(master_fft)
        if master_fft is not None
        else next_fast_len(processed.shape[-1])
    )
    spectra = fft(processed, n=nfft, axis=-1)
    if config.whiten_spectra:
        spectra = whiten(spectra, axis=-1)
    if master_fft is None:
        master_fft = spectra[config.master_channel]
    return np.asarray(abscorr(spectra, master_fft[None, :], axis=-1))


def noise_correlation_functions(
    data: np.ndarray,
    config: InterferometryConfig,
    max_lag_seconds: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Time-domain noise cross-correlations against the master channel.

    Returns ``(lags_seconds, ncfs)`` with ``ncfs`` of shape
    ``(channels, n_lags)`` — the empirical Green's function estimates the
    interferometry pipeline feeds into dispersion imaging.  Spectra are
    whitened before correlation (standard ambient-noise practice).
    """
    data = np.asarray(data, dtype=np.float64)
    processed = preprocess(data, config)
    n = processed.shape[-1]
    nfft = next_fast_len(2 * n - 1)
    spectra = rfft(processed, n=nfft, axis=-1)
    spectra = whiten(spectra, axis=-1)
    master = spectra[config.master_channel]
    cross = spectra * np.conj(master)[None, :]
    cc = irfft(cross, n=nfft, axis=-1)
    # Reorder to lags -(n-1) .. +(n-1)
    cc = np.concatenate([cc[:, -(n - 1) :], cc[:, :n]], axis=-1)
    lags = np.arange(-(n - 1), n) / config.out_fs
    if max_lag_seconds is not None:
        keep = np.abs(lags) <= max_lag_seconds
        lags, cc = lags[keep], cc[:, keep]
    return lags, cc


# ---------------------------------------------------------------------------
# Algorithm 3 as an operator chain (the streaming execution core)
# ---------------------------------------------------------------------------


def preprocess_operators(config: InterferometryConfig) -> list:
    """The :func:`preprocess` chain as streaming operators
    (detrend → taper → filtfilt → resample), each with its overlap
    contract, runnable chunk-at-a-time by
    :func:`~repro.core.pipeline.run_chunks`."""
    from repro.core.operators import DecimateOp, DetrendOp, FiltFiltOp, TaperOp

    b, a = config.coefficients()
    ops: list = [DetrendOp()]
    if config.taper_fraction > 0:
        ops.append(TaperOp(config.taper_fraction))
    ops.append(FiltFiltOp(b, a))
    ops.append(DecimateOp(config.resample_q))
    return ops


def interferometry_operators(
    config: InterferometryConfig, master_fft: np.ndarray | None = None
) -> list:
    """The full Algorithm 3 graph: preprocessing map operators, the FFT
    accumulation sink, and the post-sink spectrum stages.

    The same graph serves both Fig. 9 execution styles:
    :func:`~repro.core.pipeline.run_materialized` runs it MATLAB-style,
    :func:`~repro.core.pipeline.run_chunks` streams it in overlap-aware
    chunks.
    """
    from repro.core.operators import CorrelateOp, FFTSink, WhitenOp

    ops = preprocess_operators(config)
    ops.append(FFTSink(nfft=len(master_fft) if master_fft is not None else None))
    if config.whiten_spectra:
        ops.append(WhitenOp())
    ops.append(
        CorrelateOp(master_fft=master_fft, master_channel=config.master_channel)
    )
    return ops


def master_bound_operators(
    source: ChunkSource,
    config: InterferometryConfig,
    channel_lo: int = 0,
    step: int = 1,
) -> list:
    """:func:`interferometry_operators` with ``Mfft`` bound from ``source``.

    The master spectrum is the shared node-level state of Algorithm 3:
    one channel of full-length data, read and transformed once, then
    handed to every chunk's :class:`~repro.core.operators.CorrelateOp`.
    This is the one place that binding is written — the plan builder
    (:class:`~repro.core.framework.AnalysisPlan`) and the Fig. 9 policy
    run (:func:`~repro.core.baseline.dassa_run`) both call it.
    ``channel_lo`` / ``step`` place the master in a stream the planner
    reads through a channel selection and a subsample lattice:
    ``config.master_channel`` counts from ``channel_lo`` and every
    ``step``-th raw sample is kept.
    """
    mc = config.master_channel + channel_lo
    master = source.read_strided(mc, mc + 1, 0, source.n_samples, step)
    return interferometry_operators(
        config, master_fft=master_spectrum(master, config)
    )
