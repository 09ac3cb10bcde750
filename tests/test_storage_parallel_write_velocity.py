"""Tests for velocity fitting and the das_inspect CLI."""

import numpy as np
import pytest

from repro.core.interferometry import InterferometryConfig
from repro.core.stacking import linear_stack, window_ncfs
from repro.core.velocity import VelocityFit, fit_moveout, pick_arrivals
from repro.errors import ConfigError
from repro.hdf5lite import File
from repro.hdf5lite.cli import main as das_inspect_main


class TestVelocity:
    def _ncf_field(self, velocity=40.0, channels=16, spacing=2.0, fs=100.0):
        """Synthetic NCFs: a Ricker arrival at d/velocity per channel."""
        lags = np.arange(-200, 201) / fs
        ncfs = np.zeros((channels, len(lags)))
        for channel in range(channels):
            t_arr = channel * spacing / velocity
            ncfs[channel] = np.exp(-((lags - t_arr) ** 2) / (2 * 0.02**2))
        return lags, ncfs, spacing

    def test_pick_arrivals(self):
        lags, ncfs, _ = self._ncf_field()
        picks = pick_arrivals(ncfs, lags)
        np.testing.assert_allclose(picks[5], 5 * 2.0 / 40.0, atol=0.02)

    def test_fit_recovers_velocity(self):
        lags, ncfs, spacing = self._ncf_field(velocity=40.0)
        fit = fit_moveout(ncfs, lags, channel_spacing=spacing)
        assert isinstance(fit, VelocityFit)
        assert fit.velocity == pytest.approx(40.0, rel=0.1)
        assert fit.r_squared > 0.98

    def test_fit_other_velocity(self):
        lags, ncfs, spacing = self._ncf_field(velocity=100.0)
        fit = fit_moveout(ncfs, lags, channel_spacing=spacing)
        assert fit.velocity == pytest.approx(100.0, rel=0.15)

    def test_min_distance_excludes_near_channels(self):
        lags, ncfs, spacing = self._ncf_field()
        fit = fit_moveout(ncfs, lags, channel_spacing=spacing, min_distance=6.0)
        assert fit.n_channels < ncfs.shape[0]

    def test_incoherent_input_rejected(self):
        rng = np.random.default_rng(0)
        lags = np.arange(-100, 101) / 100.0
        ncfs = rng.normal(size=(8, len(lags)))
        with pytest.raises(ConfigError):
            # random picks -> non-physical slope (usually) or fine; force
            # failure with reversed moveout:
            reversed_ncfs = np.zeros_like(ncfs)
            for channel in range(8):
                t_arr = (7 - channel) * 0.1
                reversed_ncfs[channel] = np.exp(
                    -((lags - t_arr) ** 2) / (2 * 0.01**2)
                )
            fit_moveout(reversed_ncfs, lags, channel_spacing=2.0)

    def test_validation(self):
        lags = np.arange(-10, 11) / 10.0
        ncfs = np.zeros((4, len(lags)))
        with pytest.raises(ConfigError):
            fit_moveout(ncfs, lags, channel_spacing=0.0)
        with pytest.raises(ConfigError):
            fit_moveout(ncfs, lags, channel_spacing=2.0, master_channel=9)
        with pytest.raises(ConfigError):
            pick_arrivals(ncfs, lags, min_lag=2.0)

    def test_end_to_end_from_noise(self):
        """Full physics chain: delayed common noise → windowed NCFs →
        stack → velocity fit recovers the propagation speed."""
        fs = 100.0
        spacing = 2.0
        velocity = 50.0
        channels = 10
        rng = np.random.default_rng(1)
        n = int(fs * 240)
        common = rng.normal(size=n)
        data = np.stack(
            [
                np.roll(common, int(round(c * spacing / velocity * fs)))
                + 0.3 * rng.normal(size=n)
                for c in range(channels)
            ]
        )
        config = InterferometryConfig(fs=fs, band=(1.0, 10.0), resample_q=2)
        lags, ncfs3 = window_ncfs(data, config, window_seconds=30.0, max_lag_seconds=2.0)
        stacked = linear_stack(ncfs3)
        fit = fit_moveout(stacked, lags, channel_spacing=spacing, min_distance=2.0)
        assert fit.velocity == pytest.approx(velocity, rel=0.2)


class TestInspectCLI:
    def test_listing(self, tmp_path, capsys):
        path = str(tmp_path / "x.h5")
        with File(path, "w") as f:
            f.create_dataset("d", data=np.zeros((2, 3)))
        rc = das_inspect_main([path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "d  dataset (2, 3)" in out

    def test_verify_ok(self, tmp_path, capsys):
        path = str(tmp_path / "x.h5")
        with File(path, "w") as f:
            f.create_dataset("d", data=np.zeros(4))
        rc = das_inspect_main(["--verify", path])
        assert rc == 0
        assert "integrity: ok" in capsys.readouterr().out

    def test_verify_broken_source(self, tmp_path, capsys):
        import os

        from repro.hdf5lite import VirtualSource

        src = str(tmp_path / "src.h5")
        with File(src, "w") as f:
            f.create_dataset("d", data=np.zeros((2, 2)))
        vpath = str(tmp_path / "v.h5")
        with File(vpath, "w") as f:
            f.create_dataset(
                "v",
                shape=(2, 2),
                dtype=np.float64,
                virtual_sources=[VirtualSource(src, "/d", (0, 0), (0, 0), (2, 2))],
            )
        os.remove(src)
        rc = das_inspect_main(["--verify", vpath])
        assert rc == 1
        assert "PROBLEM" in capsys.readouterr().err

    def test_not_a_file(self, tmp_path, capsys):
        rc = das_inspect_main([str(tmp_path / "missing.h5")])
        assert rc == 2
