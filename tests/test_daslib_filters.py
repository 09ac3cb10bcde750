"""Tests for filter design and application (butter/lfilter/filtfilt),
cross-validated against scipy.signal."""

import sys
import threading

import numpy as np
import pytest
import scipy.signal as sps

from repro.daslib import butter, filtfilt, lfilter, lfilter_zi
from repro.daslib.butterworth import bilinear_zpk, buttap, zpk2tf
from repro.daslib.lfilter import compiled_kernel


class TestButtap:
    def test_poles_on_unit_circle(self):
        _, p, k = buttap(5)
        np.testing.assert_allclose(np.abs(p), 1.0, atol=1e-12)
        assert k == 1.0

    def test_poles_left_half_plane(self):
        for order in (1, 2, 3, 7):
            _, p, _ = buttap(order)
            assert np.all(p.real < 1e-12)

    def test_matches_scipy(self):
        z, p, k = buttap(4)
        z_s, p_s, k_s = sps.buttap(4)
        np.testing.assert_allclose(sorted(p, key=lambda c: (c.real, c.imag)),
                                   sorted(p_s, key=lambda c: (c.real, c.imag)),
                                   atol=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            buttap(0)


class TestButter:
    @pytest.mark.parametrize("order", [1, 2, 4, 6])
    @pytest.mark.parametrize("wn", [0.1, 0.35, 0.8])
    def test_lowpass_matches_scipy(self, order, wn):
        b, a = butter(order, wn, "low")
        b_s, a_s = sps.butter(order, wn, "low")
        np.testing.assert_allclose(b, b_s, atol=1e-10)
        np.testing.assert_allclose(a, a_s, atol=1e-10)

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_highpass_matches_scipy(self, order):
        b, a = butter(order, 0.25, "high")
        b_s, a_s = sps.butter(order, 0.25, "high")
        np.testing.assert_allclose(b, b_s, atol=1e-10)
        np.testing.assert_allclose(a, a_s, atol=1e-10)

    @pytest.mark.parametrize("band", [(0.1, 0.4), (0.05, 0.15)])
    def test_bandpass_matches_scipy(self, band):
        b, a = butter(3, band, "bandpass")
        b_s, a_s = sps.butter(3, band, "bandpass")
        np.testing.assert_allclose(b, b_s, atol=1e-10)
        np.testing.assert_allclose(a, a_s, atol=1e-10)

    def test_bandstop_matches_scipy(self):
        b, a = butter(2, (0.2, 0.5), "bandstop")
        b_s, a_s = sps.butter(2, (0.2, 0.5), "bandstop")
        np.testing.assert_allclose(b, b_s, atol=1e-10)
        np.testing.assert_allclose(a, a_s, atol=1e-10)

    def test_fs_argument(self):
        # 0.5-12 Hz bandpass at 500 Hz sampling (the interferometry band)
        b, a = butter(4, (0.5, 12.0), "bandpass", fs=500.0)
        b_s, a_s = sps.butter(4, (0.5, 12.0), "bandpass", fs=500.0)
        np.testing.assert_allclose(b, b_s, atol=1e-10)
        np.testing.assert_allclose(a, a_s, atol=1e-10)

    def test_dc_gain_lowpass_unity(self):
        b, a = butter(4, 0.3, "low")
        assert np.sum(b) / np.sum(a) == pytest.approx(1.0)

    def test_nyquist_gain_highpass_unity(self):
        b, a = butter(4, 0.3, "high")
        alt = np.power(-1.0, np.arange(len(b)))
        assert abs(np.sum(b * alt) / np.sum(a * alt)) == pytest.approx(1.0)

    def test_invalid_cutoffs(self):
        with pytest.raises(ValueError):
            butter(2, 0.0)
        with pytest.raises(ValueError):
            butter(2, 1.5)
        with pytest.raises(ValueError):
            butter(2, (0.4, 0.2), "bandpass")
        with pytest.raises(ValueError):
            butter(2, 0.5, "nonsense")
        with pytest.raises(ValueError):
            butter(2, (0.1, 0.2), "low")

    def test_bilinear_preserves_stability(self):
        _, p, k = buttap(6)
        z, p_d, _ = bilinear_zpk(np.zeros(0, dtype=complex), p, k, 2.0)
        assert np.all(np.abs(p_d) < 1.0)

    def test_zpk2tf_real_output(self):
        z, p, k = buttap(3)
        b, a = zpk2tf(z, p, k)
        assert b.dtype == np.float64
        assert a.dtype == np.float64


class TestLfilter:
    def test_fir_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        b = [0.25, 0.5, 0.25]
        got = lfilter(b, [1.0], x, engine="numpy")
        np.testing.assert_allclose(got, sps.lfilter(b, [1.0], x), atol=1e-12)

    def test_iir_matches_scipy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=300)
        b, a = sps.butter(4, 0.2)
        got = lfilter(b, a, x, engine="numpy")
        np.testing.assert_allclose(got, sps.lfilter(b, a, x), atol=1e-10)

    def test_2d_axis_handling(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 120))
        b, a = sps.butter(3, 0.3)
        got = lfilter(b, a, x, axis=-1, engine="numpy")
        np.testing.assert_allclose(got, sps.lfilter(b, a, x, axis=-1), atol=1e-10)
        got0 = lfilter(b, a, x.T, axis=0, engine="numpy")
        np.testing.assert_allclose(got0, sps.lfilter(b, a, x.T, axis=0), atol=1e-10)

    def test_zi_streaming_equivalence(self):
        """Filtering a stream in two blocks with carried state equals
        filtering it whole."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        b, a = sps.butter(2, 0.15)
        zi0 = np.zeros(max(len(a), len(b)) - 1)
        y1, zf = lfilter(b, a, x[:250], zi=zi0, engine="numpy")
        y2, _ = lfilter(b, a, x[250:], zi=zf, engine="numpy")
        whole = lfilter(b, a, x, engine="numpy")
        np.testing.assert_allclose(np.concatenate([y1, y2]), whole, atol=1e-12)

    def test_engines_agree(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 257))
        b, a = sps.butter(5, 0.4)
        np.testing.assert_allclose(
            lfilter(b, a, x, engine="numpy"),
            lfilter(b, a, x, engine="scipy"),
            atol=1e-10,
        )

    def test_pure_gain(self):
        x = np.arange(10.0)
        np.testing.assert_allclose(lfilter([2.0], [1.0], x, engine="numpy"), 2 * x)

    def test_a0_scaling(self):
        x = np.arange(10.0)
        np.testing.assert_allclose(
            lfilter([2.0], [2.0], x, engine="numpy"), x, atol=1e-14
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            lfilter([1.0], [0.0], np.zeros(4))
        with pytest.raises(ValueError):
            lfilter([1.0], [1.0], np.zeros(4), engine="cuda")


@pytest.fixture
def unresolved_kernel():
    """The compiled kernel as a fresh process has it: not yet imported."""
    compiled_kernel.cache_clear()
    yield
    compiled_kernel.cache_clear()


class TestKernelImport:
    """``scipy.signal`` is imported on the first compiled call, and a
    process that cannot import it still filters."""

    @pytest.fixture
    def scipy_refused(self, monkeypatch, unresolved_kernel):
        monkeypatch.setitem(sys.modules, "scipy.signal", None)

    def test_auto_falls_back_to_the_numpy_recursion(self, scipy_refused):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 257))
        b, a = sps.butter(4, 0.3)
        np.testing.assert_allclose(
            lfilter(b, a, x, engine="auto"), sps.lfilter(b, a, x), atol=1e-10
        )
        zi = np.zeros((len(a) - 1, 3))
        y, zf = lfilter(b, a, x, zi=zi, engine="auto")
        y_s, zf_s = sps.lfilter(b, a, x, zi=zi.T)
        np.testing.assert_allclose(y, y_s, atol=1e-10)
        np.testing.assert_allclose(zf, zf_s.T, atol=1e-10)
        assert compiled_kernel() is None

    def test_scipy_engine_is_a_runtime_error(self, scipy_refused):
        with pytest.raises(RuntimeError, match="scipy is not available"):
            lfilter([1.0], [1.0, -0.5], np.ones(8), engine="scipy")

    def test_concurrent_first_calls_resolve_one_kernel(self, unresolved_kernel):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 200))
        b, a = sps.butter(3, 0.2)
        expected = sps.lfilter(b, a, x)
        start = threading.Barrier(8, timeout=30)
        results = []

        def first_call():
            start.wait()
            results.append((compiled_kernel(), lfilter(b, a, x)))

        threads = [threading.Thread(target=first_call) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        for kernel, y in results:
            assert kernel is sps.lfilter
            np.testing.assert_array_equal(y, expected)


class TestLfilterZi:
    @pytest.mark.parametrize("order,wn", [(2, 0.2), (4, 0.1), (5, 0.6)])
    def test_matches_scipy(self, order, wn):
        b, a = sps.butter(order, wn)
        np.testing.assert_allclose(lfilter_zi(b, a), sps.lfilter_zi(b, a), atol=1e-9)

    def test_step_response_steady_from_first_sample(self):
        b, a = sps.butter(3, 0.25)
        zi = lfilter_zi(b, a)
        y, _ = lfilter(b, a, np.ones(50), zi=zi, engine="numpy")
        np.testing.assert_allclose(y, 1.0, atol=1e-9)

    def test_fir_zi_shape(self):
        zi = lfilter_zi([0.5, 0.5], [1.0])
        assert zi.shape == (1,)


class TestFiltfilt:
    def test_steady_state_is_solved_once_per_filter(self, monkeypatch):
        """Each filtfilt call starts both halves in steady state; the
        state is solved once per coefficient set, shared read-only, and
        equal to solving it afresh."""
        module = sys.modules["repro.daslib.filtfilt"]
        solves = []

        def counting(b, a):
            solves.append(1)
            return lfilter_zi(b, a)

        monkeypatch.setattr(module, "lfilter_zi", counting)
        b, a = sps.butter(3, (0.0123, 0.4567), "bandpass")
        x = np.random.default_rng(8).normal(size=(3, 400))
        first = filtfilt(b, a, x)
        assert np.array_equal(filtfilt(list(b), list(a), x), first)
        assert len(solves) == 1
        zi = lfilter_zi(b, a)
        state = module._steady_state(b, a, x[:, 0])
        assert np.array_equal(state, zi[:, None] * x[:, 0])
        with pytest.raises(ValueError):
            module._unit_step_state(b.tobytes(), a.tobytes())[0] = 0.0

    @pytest.mark.parametrize("order,wn", [(2, 0.2), (4, 0.3)])
    def test_matches_scipy(self, order, wn):
        rng = np.random.default_rng(5)
        x = rng.normal(size=500)
        b, a = sps.butter(order, wn)
        got = filtfilt(b, a, x, engine="numpy")
        expected = sps.filtfilt(b, a, x)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_2d_matches_scipy(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 300))
        b, a = sps.butter(3, (0.1, 0.4), "bandpass")
        got = filtfilt(b, a, x, axis=-1, engine="numpy")
        np.testing.assert_allclose(got, sps.filtfilt(b, a, x, axis=-1), atol=1e-8)

    def test_zero_phase_property(self):
        """A filtered sinusoid in the passband keeps its phase."""
        fs = 500.0
        t = np.arange(0, 4.0, 1 / fs)
        x = np.sin(2 * np.pi * 5.0 * t)
        b, a = butter(4, (1.0, 20.0), "bandpass", fs=fs)
        y = filtfilt(b, a, x)
        core = slice(200, -200)
        # Cross-correlation peak at zero lag => no phase shift.
        shift = np.argmax(np.correlate(y[core], x[core], "full")) - (len(x[core]) - 1)
        assert shift == 0

    def test_removes_out_of_band_energy(self):
        fs = 500.0
        t = np.arange(0, 4.0, 1 / fs)
        inband = np.sin(2 * np.pi * 5.0 * t)
        outband = np.sin(2 * np.pi * 60.0 * t)
        b, a = butter(4, (1.0, 12.0), "bandpass", fs=fs)
        y = filtfilt(b, a, inband + outband)
        core = slice(250, -250)
        residual = y[core] - inband[core]
        assert np.sqrt(np.mean(residual**2)) < 0.05

    def test_short_signal_rejected(self):
        b, a = butter(4, 0.2)
        with pytest.raises(ValueError):
            filtfilt(b, a, np.zeros(10))

    def test_padlen_zero(self):
        b, a = butter(2, 0.3)
        x = np.random.default_rng(7).normal(size=100)
        got = filtfilt(b, a, x, padlen=0, engine="numpy")
        np.testing.assert_allclose(got, sps.filtfilt(b, a, x, padlen=0), atol=1e-9)
