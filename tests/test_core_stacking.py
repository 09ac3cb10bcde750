"""Tests for the analytic signal helper and NCF stacking (linear + PWS)."""

import numpy as np
import pytest
import scipy.signal as sps

from repro.core.interferometry import InterferometryConfig
from repro.core.stacking import (
    linear_stack,
    phase_weighted_stack,
    stack_snr,
    window_ncfs,
)
from repro.daslib import envelope, hilbert
from repro.errors import ConfigError


class TestHilbert:
    @pytest.mark.parametrize("n", [64, 65, 128, 255])
    def test_matches_scipy(self, n):
        x = np.random.default_rng(0).normal(size=n)
        np.testing.assert_allclose(hilbert(x), sps.hilbert(x), atol=1e-9)

    def test_real_part_is_input(self):
        x = np.random.default_rng(1).normal(size=100)
        np.testing.assert_allclose(hilbert(x).real, x, atol=1e-10)

    def test_envelope_of_am_signal(self):
        t = np.linspace(0, 1, 2000)
        env = 1.0 + 0.5 * np.sin(2 * np.pi * 3 * t)
        x = env * np.cos(2 * np.pi * 100 * t)
        got = envelope(x)
        core = slice(100, -100)
        np.testing.assert_allclose(got[core], env[core], atol=0.03)

    def test_instantaneous_phase_of_tone(self):
        t = np.arange(1000) / 1000.0
        x = np.cos(2 * np.pi * 50 * t)
        phase = np.angle(hilbert(x))
        freq = np.diff(np.unwrap(phase)) * 1000 / (2 * np.pi)
        np.testing.assert_allclose(freq[50:-50], 50.0, atol=0.5)

    def test_2d_axis(self):
        x = np.random.default_rng(2).normal(size=(4, 64))
        got = hilbert(x, axis=-1)
        for row in range(4):
            np.testing.assert_allclose(got[row], sps.hilbert(x[row]), atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hilbert(np.zeros((3, 0)))


@pytest.fixture
def config():
    return InterferometryConfig(fs=100.0, band=(1.0, 10.0), resample_q=2)


def delayed_noise_field(rng, channels=4, seconds=120.0, fs=100.0, delay=20, snr=1.0):
    """A common signal delayed per channel, buried in noise."""
    n = int(seconds * fs)
    common = rng.normal(size=n)
    data = np.empty((channels, n))
    for channel in range(channels):
        data[channel] = (
            np.roll(common, delay * channel) * snr + rng.normal(size=n)
        )
    return data


class TestWindowNCFs:
    def test_shape(self, config):
        rng = np.random.default_rng(3)
        data = delayed_noise_field(rng)
        lags, ncfs = window_ncfs(data, config, window_seconds=20.0)
        assert ncfs.shape[0] == 6  # 120s / 20s windows
        assert ncfs.shape[1] == 4
        assert ncfs.shape[2] == len(lags)

    def test_overlap_increases_window_count(self, config):
        rng = np.random.default_rng(4)
        data = delayed_noise_field(rng)
        _, plain = window_ncfs(data, config, window_seconds=20.0)
        _, dense = window_ncfs(data, config, window_seconds=20.0, overlap=0.5)
        assert dense.shape[0] > plain.shape[0]

    def test_validation(self, config):
        data = np.zeros((2, 1000))
        with pytest.raises(ConfigError):
            window_ncfs(np.zeros(10), config, 1.0)
        with pytest.raises(ConfigError):
            window_ncfs(data, config, -1.0)
        with pytest.raises(ConfigError):
            window_ncfs(data, config, 1.0, overlap=1.0)
        with pytest.raises(ConfigError):
            window_ncfs(data, config, 100.0)  # longer than record


class TestStacks:
    def test_linear_stack_is_mean(self):
        ncfs = np.random.default_rng(5).normal(size=(7, 3, 50))
        np.testing.assert_allclose(linear_stack(ncfs), ncfs.mean(axis=0))

    def test_pws_equals_linear_for_identical_windows(self):
        one = np.random.default_rng(6).normal(size=(1, 2, 64))
        ncfs = np.repeat(one, 5, axis=0)
        pws = phase_weighted_stack(ncfs)
        np.testing.assert_allclose(pws, linear_stack(ncfs), atol=1e-9)

    def test_pws_suppresses_incoherent_noise(self):
        rng = np.random.default_rng(7)
        ncfs = rng.normal(size=(20, 1, 256))
        linear = linear_stack(ncfs)
        pws = phase_weighted_stack(ncfs)
        assert np.abs(pws).mean() < 0.5 * np.abs(linear).mean()

    def test_power_zero_is_linear(self):
        ncfs = np.random.default_rng(8).normal(size=(4, 2, 32))
        np.testing.assert_allclose(
            phase_weighted_stack(ncfs, power=0.0), linear_stack(ncfs), atol=1e-12
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            linear_stack(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            linear_stack(np.zeros((0, 2, 3)))
        with pytest.raises(ConfigError):
            phase_weighted_stack(np.zeros((2, 2, 4)), power=-1)


class TestStackingPhysics:
    def test_stacking_raises_snr(self, config):
        """More windows stacked => higher SNR on the travel-time peak —
        the reason the pipeline stacks at all."""
        rng = np.random.default_rng(9)
        data = delayed_noise_field(rng, seconds=240.0, delay=20, snr=0.6)
        lags, ncfs = window_ncfs(data, config, window_seconds=20.0, max_lag_seconds=3.0)
        window = (0.15, 0.7)  # true delay of channel 1..3: 0.2..0.6 s
        few = stack_snr(linear_stack(ncfs[:2]), lags, window)[1:]
        many = stack_snr(linear_stack(ncfs), lags, window)[1:]
        assert many.mean() > few.mean()

    def test_stack_recovers_delay(self, config):
        rng = np.random.default_rng(10)
        data = delayed_noise_field(rng, seconds=240.0, delay=30, snr=0.8)
        lags, ncfs = window_ncfs(data, config, window_seconds=30.0, max_lag_seconds=3.0)
        stacked = phase_weighted_stack(ncfs)
        peak_lag = lags[np.argmax(np.abs(stacked[1]))]
        assert peak_lag == pytest.approx(30 / 100.0, abs=0.1)

    def test_snr_validation(self):
        lags = np.linspace(-1, 1, 101)
        with pytest.raises(ConfigError):
            stack_snr(np.zeros(101), lags, (-2.0, 2.0))  # covers everything
