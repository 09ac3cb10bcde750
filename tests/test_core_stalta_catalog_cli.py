"""Tests for STA/LTA detection and das_analyze."""

import numpy as np
import pytest

from repro.core.cli import main as das_analyze_main
from repro.core.pipeline import OpContext
from repro.core.stalta import (
    StaLtaOp,
    Trigger,
    _windowed_ratio,
    array_detections,
    classic_sta_lta,
    trigger_onset,
)
from repro.errors import ConfigError
from tests.reference.core import gathered_ratio


def impulsive_signal(n=2000, onset=1000, fs=100.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 0.1
    t = np.arange(n - onset) / fs
    x[onset:] += 3.0 * np.exp(-t / 2.0) * np.sin(2 * np.pi * 8.0 * t)
    return x


class TestClassicStaLta:
    def test_triggers_on_onset(self):
        x = impulsive_signal()
        ratio = classic_sta_lta(x, nsta=20, nlta=200)
        onset_region = ratio[1000:1100]
        quiet_region = ratio[400:900]
        assert onset_region.max() > 5 * quiet_region.max()

    def test_warmup_region_zero(self):
        ratio = classic_sta_lta(np.ones(500), nsta=10, nlta=100)
        assert np.all(ratio[:99] == 0.0)

    def test_steady_state_ratio_one(self):
        ratio = classic_sta_lta(np.ones(1000), nsta=10, nlta=100)
        np.testing.assert_allclose(ratio[200:], 1.0, atol=1e-9)

    def test_matches_obspy_formula(self):
        """Reference: trailing-window mean of x^2 ratios."""
        x = impulsive_signal(seed=1)
        nsta, nlta = 15, 150
        ratio = classic_sta_lta(x, nsta, nlta)
        i = 1234
        sta = np.mean(x[i - nsta + 1 : i + 1] ** 2)
        lta = np.mean(x[i - nlta + 1 : i + 1] ** 2)
        assert ratio[i] == pytest.approx(sta / lta)

    def test_2d_batch(self):
        data = np.stack([impulsive_signal(seed=s) for s in range(3)])
        ratio = classic_sta_lta(data, nsta=20, nlta=200, axis=-1)
        assert ratio.shape == data.shape

    def test_validation(self):
        with pytest.raises(ConfigError):
            classic_sta_lta(np.zeros(100), nsta=50, nlta=20)
        with pytest.raises(ConfigError):
            classic_sta_lta(np.zeros(10), nsta=2, nlta=50)


class TestWindowedRatioKernel:
    """Slice differences in place of index gathers: the same cells, bit
    for bit, NaN containment included, on blocks of any length."""

    @pytest.mark.parametrize("shape", [(32, 12499), (5, 40), (3, 600), (1, 7), (2, 3, 90)])
    @pytest.mark.parametrize("nsta, nlta", [(50, 500), (3, 11), (4, 16)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_cell_for_cell_equal_to_the_gathers(self, shape, nsta, nlta, masked):
        data = np.random.default_rng(len(shape) + nlta).normal(size=shape)
        data[..., shape[-1] // 3] = 0.0
        if masked:
            data[..., 5] = np.nan
            data[0, ..., -2:] = np.nan
        before = data.copy()
        got = _windowed_ratio(data, nsta, nlta)
        want = gathered_ratio(data, nsta, nlta)
        np.testing.assert_array_equal(got, want)  # NaN cells compare equal
        assert np.isnan(got).any() == masked
        np.testing.assert_array_equal(data, before)  # the input is not scratch

    def test_streamed_blocks_zero_the_warm_up_by_absolute_position(self):
        data = np.random.default_rng(4).normal(size=(3, 64))
        op = StaLtaOp(4, 16)
        for start in (0, 9, 15, 400):
            ctx = OpContext(start=start, stop=start + 64, total=10_000)
            want = gathered_ratio(data, 4, 16)
            want[..., start + np.arange(64) < 15] = 0.0
            np.testing.assert_array_equal(op.apply(data, ctx), want)


class TestTriggerOnset:
    def test_single_trigger(self):
        ratio = np.zeros(100)
        ratio[40:60] = 5.0
        triggers = trigger_onset(ratio, on_threshold=3.0, off_threshold=1.0)
        assert triggers == [Trigger(40, 60)]

    def test_hysteresis(self):
        ratio = np.zeros(100)
        ratio[40:50] = 5.0
        ratio[50:70] = 2.0  # below on, above off: stays triggered
        triggers = trigger_onset(ratio, on_threshold=3.0, off_threshold=1.0)
        assert triggers == [Trigger(40, 100)] or triggers == [Trigger(40, 70)]

    def test_open_trigger_at_end(self):
        ratio = np.zeros(50)
        ratio[40:] = 9.0
        triggers = trigger_onset(ratio, 3.0, 1.0)
        assert triggers == [Trigger(40, 50)]

    def test_multiple_triggers(self):
        ratio = np.zeros(100)
        ratio[10:20] = 5.0
        ratio[60:70] = 5.0
        assert len(trigger_onset(ratio, 3.0, 1.0)) == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            trigger_onset(np.zeros(10), 1.0, 2.0)
        with pytest.raises(ConfigError):
            trigger_onset(np.zeros((2, 5)), 2.0, 1.0)


class TestArrayDetections:
    def test_detects_array_wide_event(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(16, 3000)) * 0.1
        t = np.arange(400) / 100.0
        data[:, 1500:1900] += 2.0 * np.sin(2 * np.pi * 10.0 * t)
        triggers = array_detections(data, nsta=20, nlta=300, min_fraction=0.5)
        assert len(triggers) >= 1
        assert any(1450 <= tr.on <= 1600 for tr in triggers)

    def test_single_channel_spike_rejected(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(16, 2000)) * 0.1
        data[3, 1000:1050] += 10.0  # only one channel
        triggers = array_detections(data, nsta=20, nlta=300, min_fraction=0.5)
        assert triggers == []

    def test_validation(self):
        with pytest.raises(ConfigError):
            array_detections(np.zeros((2, 500)), 5, 50, min_fraction=0.0)
        with pytest.raises(ConfigError):
            array_detections(np.zeros(500), 5, 50)


class TestDasAnalyzeCLI:
    def test_similarity_run(self, das_dir, tmp_path, capsys):
        out = str(tmp_path / "simi.h5")
        rc = das_analyze_main(
            [
                "-d", das_dir["dir"], "-s", "170620100545", "-c", "6",
                "--analysis", "similarity",
                "--half-window", "5", "--half-lag", "2", "--stride", "10",
                "-o", out,
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "merged 6 files" in text
        from repro.hdf5lite import File

        with File(out, "r") as f:
            assert f.attrs["analysis"] == "local-similarity"
            assert f.dataset("similarity").shape[0] == 14

    def test_interferometry_run(self, das_dir, tmp_path, capsys):
        out = str(tmp_path / "corr.h5")
        rc = das_analyze_main(
            [
                "-d", das_dir["dir"], "-e", r"\d{12}",
                "--analysis", "interferometry",
                "--band", "0.05", "0.4", "--resample-q", "2",
                "-o", out,
            ]
        )
        assert rc == 0
        from repro.hdf5lite import File

        with File(out, "r") as f:
            assert f.dataset("correlation").shape == (16,)

    def test_detect_flag(self, das_dir, capsys):
        rc = das_analyze_main(
            [
                "-d", das_dir["dir"], "-s", "170620100545", "-c", "6",
                "--half-window", "5", "--half-lag", "2", "--stride", "10",
                "--detect", "--threshold", "5.0",
            ]
        )
        assert rc == 0
        assert "event(s)" in capsys.readouterr().out

    def test_no_match_exit_code(self, das_dir, capsys):
        rc = das_analyze_main(["-d", das_dir["dir"], "-s", "300101000000"])
        assert rc == 1
