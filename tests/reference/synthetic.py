"""Frozen reference implementations the ``repro.synthetic`` tests check the
program against, kept as they stood when every event was rendered over the
whole ``(channels, samples)`` grid.

* :func:`earthquake_signal`, :func:`vehicle_signal` and
  :func:`ambient_noise` — the signal models evaluated at every sample and
  masked afterwards;
* :func:`synthesize_scene` — the scene as the noise floor plus one
  full-size array per event.

The program renders each event only where it can be non-zero; its arrays
and its ``rng`` state must equal these bit for bit.
"""

import numpy as np

from repro.daslib import butter, lfilter
from repro.errors import ConfigError
from repro.synthetic.events import ricker
from repro.synthetic.noise import persistent_vibration


def earthquake_signal(
    n_channels,
    n_samples,
    fs=500.0,
    origin_time=10.0,
    epicenter_channel=None,
    apparent_velocity=3000.0,
    channel_spacing=2.0,
    peak_freq=5.0,
    amplitude=5.0,
    coda_seconds=4.0,
    rng=None,
):
    if rng is None:
        rng = np.random.default_rng()
    if epicenter_channel is None:
        epicenter_channel = n_channels / 2.0
    t = np.arange(n_samples) / fs
    channels = np.arange(n_channels)
    distance = np.abs(channels - epicenter_channel) * channel_spacing
    arrivals = origin_time + distance / apparent_velocity
    rel = t[None, :] - arrivals[:, None]
    wavelet = ricker(rel, peak_freq)
    coda = np.where(
        rel > 0,
        np.exp(-rel / max(coda_seconds, 1e-6))
        * np.sin(2 * np.pi * peak_freq * rel),
        0.0,
    )
    site = 1.0 + 0.1 * rng.standard_normal(n_channels)
    return amplitude * site[:, None] * (wavelet + 0.5 * coda)


def vehicle_signal(
    n_channels,
    n_samples,
    fs=500.0,
    start_time=0.0,
    start_channel=0.0,
    speed_mps=25.0,
    channel_spacing=2.0,
    width_channels=8.0,
    freq=15.0,
    amplitude=3.0,
):
    t = np.arange(n_samples) / fs
    channels = np.arange(n_channels)
    position = start_channel + (t - start_time) * speed_mps / channel_spacing
    active = t >= start_time
    distance = channels[:, None] - position[None, :]
    envelope = np.exp(-0.5 * (distance / width_channels) ** 2)
    carrier = np.sin(2 * np.pi * freq * t)[None, :]
    signal = amplitude * envelope * carrier
    signal[:, ~active] = 0.0
    off_array = (position < -4 * width_channels) | (
        position > n_channels + 4 * width_channels
    )
    signal[:, off_array] = 0.0
    return signal


def ambient_noise(
    n_channels, n_samples, fs=500.0, band=(0.5, 40.0), amplitude=1.0, rng=None
):
    if rng is None:
        rng = np.random.default_rng()
    white = rng.standard_normal((n_channels, n_samples))
    nyq = fs / 2.0
    lo = max(band[0] / nyq, 1e-4)
    hi = min(band[1] / nyq, 0.999)
    b, a = butter(2, (lo, hi), "bandpass")
    shaped = lfilter(b, a, white, axis=-1)
    scale = np.std(shaped)
    if scale > 0:
        shaped = shaped / scale
    return amplitude * shaped


_BUILDERS = {
    "earthquake": earthquake_signal,
    "vehicle": vehicle_signal,
    "vibration": persistent_vibration,
}


def synthesize_scene(scene, minutes, samples_per_minute=None):
    if minutes < 1:
        raise ConfigError("minutes must be >= 1")
    spm = samples_per_minute or int(60 * scene.fs)
    n_samples = minutes * spm
    rng = np.random.default_rng(scene.seed)
    data = ambient_noise(
        scene.n_channels,
        n_samples,
        fs=scene.fs,
        band=scene.noise_band,
        amplitude=scene.noise_amplitude,
        rng=rng,
    )
    for kind, kwargs in scene.events:
        if kind not in _BUILDERS:
            raise ConfigError(f"unknown event kind {kind!r}")
        call_kwargs = dict(kwargs)
        if kind in ("earthquake", "vehicle"):
            call_kwargs.setdefault("channel_spacing", scene.channel_spacing)
        if kind in ("earthquake", "vibration"):
            call_kwargs.setdefault("rng", rng)
        data += _BUILDERS[kind](
            scene.n_channels, n_samples, fs=scene.fs, **call_kwargs
        )
    return data.astype(np.float32)
