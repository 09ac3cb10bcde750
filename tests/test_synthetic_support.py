"""The synthetic models render each event only over its support; their
arrays and ``rng`` state must equal the full-grid definitions in
``tests/reference/synthetic.py`` bit for bit."""

import numpy as np
import pytest

from repro.synthetic import (
    SceneSpec,
    ambient_noise,
    earthquake_signal,
    fig1b_scene,
    synthesize_scene,
    vehicle_signal,
)
from tests.reference import synthetic as reference


def assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    bits = np.uint64 if got.dtype == np.float64 else np.uint32
    np.testing.assert_array_equal(got.view(bits), want.view(bits))


def same_draws(program, spec, seed=11, **kwargs):
    """Call both with equal fresh generators; the arrays and the state
    each generator is left in must be equal."""
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        got = program(rng=got_rng, **kwargs)
        want = spec(rng=want_rng, **kwargs)
    assert_bits_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# A 20 s record at 100 Hz: origins before it, at its start, inside, at and
# past its end, at three wavelet widths.
QUAKES = [
    dict(origin_time=origin, peak_freq=freq)
    for origin in (-30.0, -1.0, 0.0, 7.3, 19.99, 20.0, 60.0)
    for freq in (0.5, 5.0, 40.0)
] + [
    dict(n_samples=1, origin_time=0.0),
    dict(n_samples=1, origin_time=10.0),
    dict(n_samples=1, origin_time=-0.5, peak_freq=0.5),
    dict(peak_freq=0.0),
    dict(peak_freq=-5.0),
    dict(amplitude=-5.0),
    dict(amplitude=0.0),
    dict(coda_seconds=0.0),
    dict(epicenter_channel=-50.0, origin_time=3.0),
    dict(apparent_velocity=np.inf),
    dict(apparent_velocity=0.0),
    dict(apparent_velocity=-3000.0),
    dict(origin_time=np.nan),
    dict(n_channels=1),
    dict(n_channels=0),
    dict(n_channels=64, fs=500.0, n_samples=9000, origin_time=9.9),
    dict(fs=7.0, n_samples=333, origin_time=20.0),
]


@pytest.mark.parametrize("case", QUAKES, ids=repr)
def test_earthquake_equals_the_full_grid_model(case):
    kwargs = dict(n_channels=8, n_samples=2000, fs=100.0, origin_time=10.0)
    kwargs.update(case)
    same_draws(earthquake_signal, reference.earthquake_signal, **kwargs)


VEHICLES = [
    dict(start_time=start, speed_mps=speed, start_channel=0.0 if speed >= 0 else 7.0)
    for start in (-5.0, 0.0, 3.3, 19.99, 25.0)
    for speed in (25.0, -25.0, 0.0)
] + [
    dict(start_channel=-100.0, speed_mps=-25.0),  # never enters
    dict(start_channel=200.0, speed_mps=25.0),  # never enters
    dict(start_channel=-60.0, speed_mps=50.0, start_time=2.0),  # enters late
    dict(start_channel=-32.0, speed_mps=0.0),  # parked on the boundary
    dict(n_samples=1, start_time=0.0),
    dict(n_samples=1, start_time=1.0),
    dict(width_channels=0.5, speed_mps=3.0),
    dict(amplitude=-3.0),
    dict(n_channels=0),
    dict(fs=7.0, n_samples=333, speed_mps=1.0),
]


@pytest.mark.parametrize("case", VEHICLES, ids=repr)
def test_vehicle_equals_the_full_grid_model(case):
    kwargs = dict(n_channels=8, n_samples=2000, fs=100.0)
    kwargs.update(case)
    with np.errstate(all="ignore"):
        got = vehicle_signal(**kwargs)
        want = reference.vehicle_signal(**kwargs)
    assert_bits_equal(got, want)


NOISE = [
    dict(n_channels=c, n_samples=n, amplitude=amplitude)
    for c, n in ((8, 2000), (3, 1), (1, 5), (5, 777))
    for amplitude in (1.0, 0.0, -2.5)
] + [dict(n_channels=4, n_samples=3000, band=(5.0, 20.0))]


@pytest.mark.parametrize("case", NOISE, ids=repr)
def test_ambient_noise_equals_the_reference(case):
    same_draws(ambient_noise, reference.ambient_noise, **case)


def scene_equal(scene, minutes, spm):
    assert_bits_equal(
        synthesize_scene(scene, minutes, samples_per_minute=spm),
        reference.synthesize_scene(scene, minutes, samples_per_minute=spm),
    )


# The harness's shapes (benchmarks/harness/common.py); batch_detect,
# serve_fleet and archive_build share one.
HARNESS = {
    "batch_detect,serve_fleet,archive_build": (32, 3, 30000, 500.0),
    "archive_scan": (96, 3, 10000, 500.0),
    "rt_drip": (24, 40, 3000, 100.0),
}


@pytest.mark.parametrize("shape", HARNESS.values(), ids=HARNESS.keys())
def test_the_harness_scenes_equal_the_full_grid_scene(shape):
    channels, minutes, spm, fs = shape
    scene = fig1b_scene(
        n_channels=channels, fs=fs, minutes=minutes, samples_per_minute=spm, seed=1
    )
    scene_equal(scene, minutes, spm)


@pytest.mark.parametrize(
    "scene",
    [
        fig1b_scene(n_channels=16, minutes=2, samples_per_minute=500, seed=3),
        # a floor of signed zeros: the +0.0 a vehicle is before it starts
        # turns the floor's -0.0 there into +0.0
        SceneSpec(
            n_channels=8,
            noise_amplitude=0.0,
            events=[
                ("vehicle", dict(start_time=0.5)),
                ("earthquake", dict(origin_time=1.9, peak_freq=40.0)),
            ],
        ),
        SceneSpec(
            n_channels=8,
            noise_amplitude=-0.0,
            events=[("earthquake", dict(origin_time=0.5, amplitude=-1.0))],
        ),
        # events before and past the record
        SceneSpec(
            n_channels=8,
            events=[
                ("earthquake", dict(origin_time=-40.0)),
                ("earthquake", dict(origin_time=90.0)),
                ("vehicle", dict(start_time=90.0)),
                ("vehicle", dict(start_channel=-500.0)),
                ("vibration", dict(center_channel=3)),
            ],
        ),
        SceneSpec(n_channels=5),
    ],
    ids=["fig1b", "zero-floor", "negative-zero-floor", "outside", "noise-only"],
)
def test_scenes_equal_the_full_grid_scene(scene):
    scene_equal(scene, 2, 500)
