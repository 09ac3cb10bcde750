"""Signal models for detectable events: earthquakes and vehicles.

Each model is rendered only over its support, the columns where it can be
non-zero: a private ``_*_block`` helper returns ``(lo, block, zero)``,
the event over columns ``[lo, lo + block.shape[1])`` and the value it
takes at every other column, and the public function pads the block to
the full grid.  The result equals evaluating the model at every sample
and masking afterwards, bit for bit (``tests/reference/synthetic.py``
keeps that definition).  The order of the draws from ``rng`` is part of
the contract: an event draws the same numbers whether or not it falls
inside the record, so the events after it see the same stream.
"""

from __future__ import annotations

import numpy as np

#: ``exp(-u)`` is exactly 0.0 once ``u > 745.2``: past this argument the
#: Ricker wavelet is -0.0 and adds nothing.
_RICKER_ARG_LIMIT = 746.0


def ricker(t: np.ndarray, peak_freq: float) -> np.ndarray:
    """Ricker (Mexican-hat) wavelet centred at ``t = 0``."""
    arg = (np.pi * peak_freq * t) ** 2
    return (1.0 - 2.0 * arg) * np.exp(-arg)


def _span(mask: np.ndarray) -> tuple[int, int]:
    """The first and one past the last True index of a 1-D ``mask``;
    ``(len(mask), len(mask))`` when none is True."""
    (hits,) = np.nonzero(mask)
    if hits.size == 0:
        return len(mask), len(mask)
    return int(hits[0]), int(hits[-1]) + 1


def _pad(
    n_samples: int, lo: int, block: np.ndarray, zero: float | np.ndarray
) -> np.ndarray:
    """A block helper's result on the full ``(channels, n_samples)`` grid."""
    out = np.empty((block.shape[0], n_samples))
    hi = lo + block.shape[1]
    out[:, :lo] = zero
    out[:, lo:hi] = block
    out[:, hi:] = zero
    return out


def earthquake_signal(
    n_channels: int,
    n_samples: int,
    fs: float = 500.0,
    origin_time: float = 10.0,
    epicenter_channel: float | None = None,
    apparent_velocity: float = 3000.0,
    channel_spacing: float = 2.0,
    peak_freq: float = 5.0,
    amplitude: float = 5.0,
    coda_seconds: float = 4.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """A coherent earthquake wavefront sweeping the whole array.

    Arrival at channel ``c`` is delayed by its fiber distance from the
    epicentral channel over the apparent velocity (hyperbolic moveout
    flattened to linear, adequate for a distant event).  Each arrival is
    a Ricker wavelet followed by an exponentially decaying coda, giving
    the across-array coherent band of Fig. 1b.
    """
    return _pad(
        n_samples,
        *_earthquake_block(
            n_channels, n_samples, fs, origin_time, epicenter_channel,
            apparent_velocity, channel_spacing, peak_freq, amplitude,
            coda_seconds, rng,
        ),
    )


def _earthquake_block(
    n_channels: int,
    n_samples: int,
    fs: float = 500.0,
    origin_time: float = 10.0,
    epicenter_channel: float | None = None,
    apparent_velocity: float = 3000.0,
    channel_spacing: float = 2.0,
    peak_freq: float = 5.0,
    amplitude: float = 5.0,
    coda_seconds: float = 4.0,
    rng: np.random.Generator | None = None,
) -> tuple[int, np.ndarray, np.ndarray]:
    """:func:`earthquake_signal` from the first column the wavelet can
    reach to the end of the record (the coda runs on from each arrival);
    before it, every channel is ``amplitude * site * 0.0``."""
    if rng is None:
        rng = np.random.default_rng()
    # Slight per-channel amplitude variation (site/coupling effects).
    site = 1.0 + 0.1 * rng.standard_normal(n_channels)
    scale = amplitude * site[:, None]
    if epicenter_channel is None:
        epicenter_channel = n_channels / 2.0
    t = np.arange(n_samples) / fs
    channels = np.arange(n_channels)
    distance = np.abs(channels - epicenter_channel) * channel_spacing
    arrivals = origin_time + distance / apparent_velocity

    # The wavelet is -0.0 wherever (pi f rel)**2 > 746, provided every
    # time involved is finite; otherwise it is evaluated everywhere.
    if (
        0 < abs(peak_freq) < np.inf
        and np.isfinite(t).all()
        and np.isfinite(arrivals).all()
    ):
        half = np.sqrt(_RICKER_ARG_LIMIT) / (np.pi * abs(peak_freq))
        lo = _span(t >= arrivals.min(initial=np.inf) - half)[0]
        hi = max(lo, _span(t <= arrivals.max(initial=-np.inf) + half)[1])
    else:
        lo, hi = 0, n_samples

    # (channels, samples) time relative to each channel's arrival
    rel = t[None, lo:] - arrivals[:, None]
    # The coda, 0.5 * where(rel > 0, exp(-rel / tau) * sin(2 pi f rel), 0).
    block = np.negative(rel)
    block /= max(coda_seconds, 1e-6)
    np.exp(block, out=block)
    carrier = 2 * np.pi * peak_freq * rel
    np.sin(carrier, out=carrier)
    block *= carrier
    block[~(rel > 0)] = 0.0
    block *= 0.5
    block[:, : hi - lo] += ricker(t[None, lo:hi] - arrivals[:, None], peak_freq)
    block *= scale
    return lo, block, scale * 0.0


def vehicle_signal(
    n_channels: int,
    n_samples: int,
    fs: float = 500.0,
    start_time: float = 0.0,
    start_channel: float = 0.0,
    speed_mps: float = 25.0,
    channel_spacing: float = 2.0,
    width_channels: float = 8.0,
    freq: float = 15.0,
    amplitude: float = 3.0,
) -> np.ndarray:
    """A localised wave packet moving along the fiber at road speed.

    The source position advances at ``speed_mps``; each instant excites a
    Gaussian neighbourhood of channels around it — producing the diagonal
    streaks cars leave in DAS records (Fig. 1b).  Negative ``speed_mps``
    drives the vehicle toward lower channels.
    """
    return _pad(
        n_samples,
        *_vehicle_block(
            n_channels, n_samples, fs, start_time, start_channel, speed_mps,
            channel_spacing, width_channels, freq, amplitude,
        ),
    )


def _vehicle_block(
    n_channels: int,
    n_samples: int,
    fs: float = 500.0,
    start_time: float = 0.0,
    start_channel: float = 0.0,
    speed_mps: float = 25.0,
    channel_spacing: float = 2.0,
    width_channels: float = 8.0,
    freq: float = 15.0,
    amplitude: float = 3.0,
) -> tuple[int, np.ndarray, float]:
    """:func:`vehicle_signal` over the columns from the vehicle's first
    instant on the array to its last; every other column is +0.0."""
    t = np.arange(n_samples) / fs
    channels = np.arange(n_channels)
    position = start_channel + (t - start_time) * speed_mps / channel_spacing
    # The vehicle is silent before it starts and once its position is
    # off the array.
    on = (t >= start_time) & ~(
        (position < -4 * width_channels)
        | (position > n_channels + 4 * width_channels)
    )
    lo, hi = _span(on)
    # exp(-0.5 * (distance / width)**2): each channel's distance from the
    # vehicle, turned into the envelope in place
    block = channels[:, None] - position[None, lo:hi]
    block /= width_channels
    np.square(block, out=block)
    block *= -0.5
    np.exp(block, out=block)
    block *= amplitude
    block *= np.sin(2 * np.pi * freq * t[lo:hi])
    block[:, ~on[lo:hi]] = 0.0
    return lo, block, 0.0
