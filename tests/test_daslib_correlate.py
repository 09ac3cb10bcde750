"""Tests for abscorr / xcorr and the MATLAB-style Das_* API."""

import numpy as np
import pytest

from repro.daslib import (
    Das_abscorr,
    Das_butter,
    Das_detrend,
    Das_fft,
    Das_filtfilt,
    Das_ifft,
    Das_interp1,
    Das_resample,
    abscorr,
    xcorr,
)


class TestAbscorr:
    def test_identical_is_one(self):
        x = np.random.default_rng(0).normal(size=100)
        assert abscorr(x, x) == pytest.approx(1.0)

    def test_negated_is_one(self):
        """|cos| makes polarity-flipped arrivals still match (DAS channels
        can record opposite strain signs)."""
        x = np.random.default_rng(1).normal(size=100)
        assert abscorr(x, -x) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        n = 256
        t = np.arange(n)
        a = np.sin(2 * np.pi * 4 * t / n)
        b = np.sin(2 * np.pi * 8 * t / n)
        assert abscorr(a, b) == pytest.approx(0.0, abs=1e-10)

    def test_range_zero_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rng.normal(size=(2, 50))
            value = abscorr(a, b)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_scale_invariant(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 64))
        assert abscorr(a, b) == pytest.approx(abscorr(5 * a, 0.1 * b))

    def test_zero_window_returns_zero(self):
        assert abscorr(np.zeros(10), np.ones(10)) == 0.0

    def test_tiny_live_window_is_not_dead(self):
        """Regression: the dead-window gate used to compare the *product*
        of the two norms against the epsilon, so any window with norm
        between ~1e-290 and ~1e-150 (product underflows the threshold
        even though each norm clears it) was wrongly scored 0.0."""
        x = np.full(4, 1.63830412e-151)
        assert abscorr(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_tiny_window_precision_survives_denormal_energy(self):
        """Windows whose squared energy lands in the denormal range must
        still score like their full-scale copies (peak rescaling)."""
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 64))
        assert abscorr(1e-160 * a, 1e-160 * b) == pytest.approx(abscorr(a, b))

    def test_complex_spectra(self):
        rng = np.random.default_rng(4)
        spec = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert abscorr(spec, spec) == pytest.approx(1.0)
        assert abscorr(spec, 1j * spec) == pytest.approx(1.0)

    def test_batched_axis(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 40))
        b = rng.normal(size=(8, 40))
        batch = abscorr(a, b, axis=-1)
        assert batch.shape == (8,)
        for i in range(8):
            assert batch[i] == pytest.approx(abscorr(a[i], b[i]))

    def test_matches_cos_theta_definition(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, 128))
        cos_theta = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abscorr(a, b) == pytest.approx(abs(cos_theta))


class TestXcorr:
    def test_peak_at_true_lag(self):
        rng = np.random.default_rng(7)
        sig = rng.normal(size=500)
        shift = 37
        delayed = np.roll(sig, shift)
        lags, cc = xcorr(delayed, sig)
        assert lags[np.argmax(cc)] == shift

    def test_normalized_autocorr_peak_is_one(self):
        x = np.random.default_rng(8).normal(size=300)
        lags, cc = xcorr(x, x)
        assert cc[lags == 0][0] == pytest.approx(1.0)
        assert np.max(cc) <= 1.0 + 1e-9

    def test_max_lag_trims(self):
        x = np.random.default_rng(9).normal(size=100)
        lags, cc = xcorr(x, x, max_lag=10)
        assert lags.min() == -10 and lags.max() == 10
        assert len(cc) == 21

    def test_matches_numpy_correlate(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=64)
        b = rng.normal(size=64)
        lags, cc = xcorr(a, b, normalize=False)
        expected = np.correlate(a, b, "full")[::-1]
        # numpy's "full" runs lag from -(len-1) on reversed convention;
        # compare by aligning zero lag.
        zero_np = len(a) - 1
        np.testing.assert_allclose(cc[lags == 0][0], expected[zero_np], atol=1e-9)
        np.testing.assert_allclose(
            cc[lags == 5][0], np.dot(a[5:], b[:-5]), atol=1e-9
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            xcorr(np.zeros((2, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            xcorr(np.zeros(4), np.zeros(4), max_lag=-1)


class TestMatlabStyleAPI:
    """The Table II surface: Das_* names behave like their implementations."""

    def test_das_abscorr(self):
        x = np.random.default_rng(12).normal(size=50)
        assert Das_abscorr(x, x) == pytest.approx(1.0)

    def test_das_detrend(self):
        t = np.arange(100.0)
        np.testing.assert_allclose(Das_detrend(2 * t + 3), 0.0, atol=1e-9)

    def test_das_butter_and_filtfilt(self):
        import scipy.signal as sps

        b, a = Das_butter(4, 0.25)
        b_s, a_s = sps.butter(4, 0.25)
        np.testing.assert_allclose(b, b_s, atol=1e-10)
        x = np.random.default_rng(13).normal(size=200)
        np.testing.assert_allclose(
            Das_filtfilt(b, a, x), sps.filtfilt(b_s, a_s, x), atol=1e-8
        )

    def test_das_resample(self):
        x = np.random.default_rng(14).normal(size=100)
        assert Das_resample(x, 1, 4).shape == (25,)

    def test_das_interp1(self):
        x0 = np.arange(4.0)
        assert Das_interp1(x0, 2 * x0, np.array([1.5]))[0] == pytest.approx(3.0)

    def test_das_fft_roundtrip(self):
        x = np.random.default_rng(15).normal(size=64)
        np.testing.assert_allclose(Das_ifft(Das_fft(x)).real, x, atol=1e-12)
