"""STA/LTA event detection.

The classical short-term-average / long-term-average trigger — the
standard single-channel seismic detector the local-similarity method
(Algorithm 2) improves on for large-N arrays.  Included both as a
baseline detector and because production DAS monitoring runs it as the
first-pass screen.

Implements the classic (windowed) form plus trigger on/off picking, with
ObsPy-compatible semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import OpContext, Operator
from repro.errors import ConfigError


def classic_sta_lta(x: np.ndarray, nsta: int, nlta: int, axis: int = -1) -> np.ndarray:
    """Classic STA/LTA of the squared signal.

    ``nsta``/``nlta`` are window lengths in samples (trailing windows).
    The first ``nlta`` samples, where the LTA is not yet filled, return
    0 so they can never trigger (ObsPy behaviour).

    NaN samples (degraded-read fill) yield NaN for exactly the outputs
    whose LTA window contains them; windows clear of NaN are computed
    from the real samples only, so a masked span's damage stays inside
    its ``nlta - 1`` halo instead of poisoning the running sums for the
    rest of the record.
    """
    if not (0 < nsta < nlta):
        raise ConfigError(f"need 0 < nsta ({nsta}) < nlta ({nlta})")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    if n < nlta:
        raise ConfigError(f"signal of {n} samples shorter than nlta={nlta}")
    ratio = _windowed_ratio(np.moveaxis(x, axis, -1), nsta, nlta)
    ratio[..., : nlta - 1] = 0.0
    return np.moveaxis(ratio, -1, axis)


def _trailing_sums(cumsum: np.ndarray, w: int) -> np.ndarray:
    """Sums over the trailing ``w``-sample window ending at each sample,
    clipped at the block's first sample, from an inclusive cumulative sum:
    two slice differences, no index arrays."""
    n = cumsum.shape[-1]
    out = np.empty_like(cumsum)
    out[..., :w] = cumsum[..., :w]
    if n > w:
        np.subtract(cumsum[..., w:], cumsum[..., : n - w], out=out[..., w:])
    return out


def _windowed_ratio(data: np.ndarray, nsta: int, nlta: int) -> np.ndarray:
    """Trailing-window STA/LTA via cumulative sums, with NaN containment:
    NaN inputs are zeroed out of the running sums and the outputs whose
    LTA window touched one are set to NaN afterwards."""
    contaminated = np.isnan(data)
    any_bad = bool(contaminated.any())
    energy = np.where(contaminated, 0.0, data) ** 2 if any_bad else data**2
    cumsum = np.cumsum(energy, axis=-1, out=energy)
    sta = _trailing_sums(cumsum, nsta)
    sta /= nsta
    lta = _trailing_sums(cumsum, nlta)
    lta /= nlta
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lta > 0, sta / np.where(lta > 0, lta, 1.0), 0.0)
    if any_bad:
        badcum = np.cumsum(contaminated, axis=-1)
        ratio[_trailing_sums(badcum, nlta) > 0] = np.nan
    return ratio


class StaLtaOp(Operator):
    """Classic STA/LTA on the streaming executor.

    The trailing LTA window is pure lookback, so the halo is one-sided:
    ``nlta - 1`` samples of left context.  Samples whose absolute index
    is below ``nlta - 1`` are zeroed by *absolute* position, reproducing
    the whole-array warm-up rule on any chunk — including chunks shorter
    than ``nlta``, which the whole-array entry point rejects outright.
    """

    name = "sta_lta"

    def __init__(self, nsta: int, nlta: int):
        if not (0 < nsta < nlta):
            raise ConfigError(f"need 0 < nsta ({nsta}) < nlta ({nlta})")
        self.nsta = int(nsta)
        self.nlta = int(nlta)
        self.halo = (self.nlta - 1, 0)

    def apply(self, data: np.ndarray, ctx: OpContext) -> np.ndarray:
        if ctx.whole and data.shape[-1] >= self.nlta:
            return classic_sta_lta(data, self.nsta, self.nlta, axis=-1)
        ratio = _windowed_ratio(
            np.asarray(data, dtype=np.float64), self.nsta, self.nlta
        )
        ratio[..., : max(0, self.nlta - 1 - ctx.start)] = 0.0
        return ratio


@dataclass(frozen=True)
class Trigger:
    """One STA/LTA trigger interval (sample indices, end exclusive)."""

    on: int
    off: int

    @property
    def length(self) -> int:
        return self.off - self.on


def trigger_onset(
    ratio: np.ndarray, on_threshold: float, off_threshold: float
) -> list[Trigger]:
    """Hysteresis picking: trigger when the ratio crosses ``on_threshold``,
    release when it falls below ``off_threshold``."""
    if off_threshold > on_threshold:
        raise ConfigError("off_threshold must not exceed on_threshold")
    ratio = np.asarray(ratio, dtype=np.float64)
    if ratio.ndim != 1:
        raise ConfigError("trigger picking takes a 1-D ratio series")
    triggers: list[Trigger] = []
    active_since: int | None = None
    for i, value in enumerate(ratio):
        if active_since is None:
            if value >= on_threshold:
                active_since = i
        else:
            if value < off_threshold:
                triggers.append(Trigger(active_since, i))
                active_since = None
    if active_since is not None:
        triggers.append(Trigger(active_since, len(ratio)))
    return triggers


def array_detections(
    data: np.ndarray,
    nsta: int,
    nlta: int,
    on_threshold: float = 3.5,
    off_threshold: float = 1.5,
    min_fraction: float = 0.3,
) -> list[Trigger]:
    """Array-wide STA/LTA: a sample is a detection when at least
    ``min_fraction`` of channels trigger simultaneously.

    This is the naive large-N detector whose noise susceptibility
    motivated local similarity (Li et al. 2018): single-channel spikes
    vote, so a localised disturbance on enough channels false-triggers.
    """
    if not (0.0 < min_fraction <= 1.0):
        raise ConfigError("min_fraction must be in (0, 1]")
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigError("need a 2-D (channels, samples) array")
    ratio = classic_sta_lta(data, nsta, nlta, axis=-1)
    voting = (ratio >= on_threshold).mean(axis=0)
    return trigger_onset(
        voting, on_threshold=min_fraction, off_threshold=min_fraction / 2
    )
