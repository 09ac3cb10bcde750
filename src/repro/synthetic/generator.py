"""Scene composition and per-minute dataset generation."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigError
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.synthetic.events import earthquake_signal, vehicle_signal
from repro.synthetic.noise import ambient_noise, persistent_vibration


@dataclass
class SceneSpec:
    """A recording scenario: array geometry plus a list of event layers.

    Each event is ``(kind, kwargs)`` with kind in {"earthquake",
    "vehicle", "vibration"}; kwargs are passed to the signal model.
    """

    n_channels: int = 256
    fs: float = 500.0
    channel_spacing: float = 2.0
    noise_amplitude: float = 1.0
    noise_band: tuple[float, float] = (0.5, 40.0)
    events: list[tuple[str, dict[str, Any]]] = field(default_factory=list)
    seed: int = 2020


def fig1b_scene(
    n_channels: int = 256,
    fs: float = 500.0,
    minutes: int = 6,
    samples_per_minute: int | None = None,
    seed: int = 2020,
) -> SceneSpec:
    """The paper's Fig. 1b scenario: 6 minutes with two moving vehicles,
    one distant M4.4 earthquake, and a persistent vibration zone."""
    spm = samples_per_minute or int(60 * fs)
    total_seconds = minutes * spm / fs
    # Vehicle speeds scale with the (possibly scaled-down) array so the
    # cars traverse it within the record, like the Fig. 1b diagonals:
    # crossing takes ~45 % / ~60 % of the recording.
    spacing = 2.0
    array_length = n_channels * spacing
    v1 = array_length / (0.45 * total_seconds)
    v2 = -array_length / (0.60 * total_seconds)
    return SceneSpec(
        n_channels=n_channels,
        fs=fs,
        noise_amplitude=1.0,
        seed=seed,
        events=[
            (
                "vehicle",
                dict(
                    start_time=0.05 * total_seconds,
                    start_channel=0.0,
                    speed_mps=v1,
                    amplitude=3.0,
                    freq=15.0,
                ),
            ),
            (
                "vehicle",
                dict(
                    start_time=0.30 * total_seconds,
                    start_channel=n_channels - 1.0,
                    speed_mps=v2,
                    amplitude=2.5,
                    freq=12.0,
                ),
            ),
            (
                "earthquake",
                dict(
                    origin_time=0.55 * total_seconds,
                    epicenter_channel=0.35 * n_channels,
                    amplitude=5.0,
                    peak_freq=5.0,
                ),
            ),
            (
                "vibration",
                dict(
                    center_channel=int(0.8 * n_channels),
                    width=max(2, n_channels // 40),
                    freq=20.0,
                    amplitude=1.5,
                ),
            ),
        ],
    )


_EVENT_BUILDERS: dict[str, Callable[..., np.ndarray]] = {
    "earthquake": earthquake_signal,
    "vehicle": vehicle_signal,
    "vibration": persistent_vibration,
}


def synthesize_scene(
    scene: SceneSpec, minutes: int, samples_per_minute: int | None = None
) -> np.ndarray:
    """Render a scene to one ``(channels, samples)`` array."""
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
        if kind not in _EVENT_BUILDERS:
            raise ConfigError(f"unknown event kind {kind!r}")
        builder = _EVENT_BUILDERS[kind]
        call_kwargs = dict(kwargs)
        if kind in ("earthquake", "vehicle"):
            call_kwargs.setdefault("channel_spacing", scene.channel_spacing)
        if kind in ("earthquake", "vibration"):
            call_kwargs.setdefault("rng", rng)
        data += builder(scene.n_channels, n_samples, fs=scene.fs, **call_kwargs)
    return data.astype(np.float32)


def generate_dataset(
    directory: str | os.PathLike,
    minutes: int,
    scene: SceneSpec | None = None,
    samples_per_minute: int | None = None,
    start_timestamp: str = "170620100545",
    prefix: str = "westSac",
    channel_groups: bool = False,
    codec: object = None,
) -> list[str]:
    """Write a scene as per-minute DAS files (the acquisition layout).

    Returns the file paths in time order.  ``channel_groups=False`` skips
    the per-channel Fig. 4 metadata groups (they're exercised separately;
    at 10k+ channels they dominate file-creation time).  ``codec``
    selects per-chunk compression of each file's ``DataCT`` (see
    :mod:`repro.hdf5lite.codecs`).
    """
    if scene is None:
        scene = fig1b_scene(minutes=minutes, samples_per_minute=samples_per_minute)
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    spm = samples_per_minute or int(60 * scene.fs)
    data = synthesize_scene(scene, minutes, samples_per_minute=spm)

    paths: list[str] = []
    stamp = start_timestamp
    for minute in range(minutes):
        block = data[:, minute * spm : (minute + 1) * spm]
        metadata = DASMetadata(
            sampling_frequency=scene.fs,
            spatial_resolution=scene.channel_spacing,
            timestamp=stamp,
            n_channels=scene.n_channels,
        )
        path = os.path.join(directory, das_filename(stamp, prefix=prefix))
        write_das_file(
            path, block, metadata, channel_groups=channel_groups, codec=codec
        )
        paths.append(path)
        stamp = timestamp_add_seconds(stamp, spm / scene.fs)
    return paths


def drip_feed_dataset(
    directory: str | os.PathLike,
    minutes: int,
    scene: SceneSpec | None = None,
    samples_per_minute: int | None = None,
    start_timestamp: str = "170620100545",
    prefix: str = "westSac",
    channel_groups: bool = False,
    interval_seconds: float = 0.0,
    sleep=None,
    codec: object = None,
):
    """Yield per-minute file paths one at a time, like a live acquisition.

    The drip-feed mode for exercising the monitoring service: each file
    is written to a temp name and atomically renamed into place (a
    watcher never observes a half-written ``.h5``), then the generator
    yields its path; with ``interval_seconds > 0`` it sleeps between
    files to emulate the acquisition cadence.  ``sleep`` is injectable
    so tests can drip without waiting.
    """
    import time as _time

    if scene is None:
        scene = fig1b_scene(minutes=minutes, samples_per_minute=samples_per_minute)
    if interval_seconds < 0:
        raise ConfigError("interval_seconds must be >= 0")
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    spm = samples_per_minute or int(60 * scene.fs)
    data = synthesize_scene(scene, minutes, samples_per_minute=spm)
    sleep = sleep if sleep is not None else _time.sleep

    stamp = start_timestamp
    for minute in range(minutes):
        block = data[:, minute * spm : (minute + 1) * spm]
        metadata = DASMetadata(
            sampling_frequency=scene.fs,
            spatial_resolution=scene.channel_spacing,
            timestamp=stamp,
            n_channels=scene.n_channels,
        )
        path = os.path.join(directory, das_filename(stamp, prefix=prefix))
        tmp = os.path.join(
            directory, "." + os.path.basename(path) + ".part"
        )
        write_das_file(
            tmp, block, metadata, channel_groups=channel_groups, codec=codec
        )
        os.replace(tmp, path)
        yield path
        stamp = timestamp_add_seconds(stamp, spm / scene.fs)
        if interval_seconds > 0 and minute + 1 < minutes:
            sleep(interval_seconds)
