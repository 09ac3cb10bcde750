"""Ambient noise models for synthetic DAS recordings."""

from __future__ import annotations

import numpy as np

from repro.daslib import butter, lfilter


def ambient_noise(
    n_channels: int,
    n_samples: int,
    fs: float = 500.0,
    band: tuple[float, float] = (0.5, 40.0),
    amplitude: float = 1.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Band-limited Gaussian ambient noise, independent per channel.

    White noise filtered into ``band`` — the traffic/wind/microseism
    background every DAS channel records.
    """
    if rng is None:
        rng = np.random.default_rng()
    white = rng.standard_normal((n_channels, n_samples))
    nyq = fs / 2.0
    lo = max(band[0] / nyq, 1e-4)
    hi = min(band[1] / nyq, 0.999)
    b, a = butter(2, (lo, hi), "bandpass")
    shaped = lfilter(b, a, white, axis=-1)
    del white
    scale = np.std(shaped)
    if scale > 0:
        shaped /= scale
    shaped *= amplitude
    return shaped


def persistent_vibration(
    n_channels: int,
    n_samples: int,
    fs: float = 500.0,
    center_channel: int = 0,
    width: int = 10,
    freq: float = 20.0,
    amplitude: float = 1.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """A narrow-band hum confined to a channel neighbourhood.

    Models stationary machinery near the cable — the "persistent
    vibrating" band visible in the paper's Fig. 10.
    """
    if rng is None:
        rng = np.random.default_rng()
    t = np.arange(n_samples) / fs
    channels = np.arange(n_channels)
    envelope = np.exp(-0.5 * ((channels - center_channel) / max(width, 1)) ** 2)
    phase = rng.uniform(0, 2 * np.pi)
    # Slow amplitude wobble so the hum is not perfectly periodic.
    wobble = 1.0 + 0.2 * np.sin(2 * np.pi * 0.05 * t + phase)
    carrier = np.sin(2 * np.pi * freq * t + phase) * wobble
    return amplitude * envelope[:, None] * carrier[None, :]
