"""Tests for the MATLAB-style baseline, the Fig. 9 model, and the DASSA
facade."""

import numpy as np
import pytest

from repro.core.baseline import Fig9Model, dassa_pipeline, matlab_style_pipeline
from repro.core.framework import DASSA
from repro.core.interferometry import InterferometryConfig, interferometry_block
from repro.core.local_similarity import LocalSimilarityConfig
from repro.errors import ConfigError, StorageError
from repro.utils.timer import Timer


@pytest.fixture
def config():
    return InterferometryConfig(fs=100.0, band=(0.5, 10.0), resample_q=4)


class TestBaselineCorrectness:
    def test_matlab_style_matches_vectorised_kernel(self, config):
        """Same maths, different execution structure: the baseline and the
        DASSA kernel must agree to numerical precision."""
        data = np.random.default_rng(0).normal(size=(6, 800))
        baseline = matlab_style_pipeline(data, config)
        kernel = interferometry_block(data, config)
        np.testing.assert_allclose(baseline, kernel, atol=1e-9)

    def test_dassa_pipeline_matches_kernel(self, config):
        data = np.random.default_rng(1).normal(size=(8, 600))
        for threads in (1, 3, 8):
            out = dassa_pipeline(data, config, threads=threads)
            np.testing.assert_allclose(
                out, interferometry_block(data, config), atol=1e-9
            )

    def test_baseline_records_stage_times(self, config):
        timer = Timer()
        matlab_style_pipeline(
            np.random.default_rng(2).normal(size=(3, 500)), config, timer=timer
        )
        assert set(timer.phases) == {
            "read",
            "detrend:prepass",
            "detrend",
            "taper",
            "filtfilt",
            "resample",
            "fft",
            "correlate",
        }

    def test_dassa_faster_than_matlab_style(self, config):
        """The real Fig. 9 effect at test scale: the fused vectorised
        pipeline beats the stage-at-a-time interpreted-loop structure."""
        import time

        data = np.random.default_rng(3).normal(size=(48, 2000))
        t0 = time.perf_counter()
        matlab_style_pipeline(data, config)
        t_matlab = time.perf_counter() - t0
        t0 = time.perf_counter()
        dassa_pipeline(data, config, threads=4)
        t_dassa = time.perf_counter() - t0
        assert t_dassa < t_matlab

    def test_invalid_inputs(self, config):
        with pytest.raises(ConfigError):
            matlab_style_pipeline(np.zeros(10), config)
        with pytest.raises(ConfigError):
            dassa_pipeline(np.zeros((4, 100)), config, threads=0)


class TestFig9Model:
    def test_speedup_near_paper_16x(self):
        model = Fig9Model()
        assert 12.0 < model.speedup() < 20.0

    def test_matlab_slower_than_dassa(self):
        model = Fig9Model()
        assert model.matlab_time(100.0) > model.dassa_time(100.0)

    def test_more_threads_widen_gap(self):
        low = Fig9Model(threads=2)
        high = Fig9Model(threads=24)
        assert high.speedup() > low.speedup()

    def test_full_parallel_matlab_closes_gap(self):
        ideal = Fig9Model(parallel_fraction=1.0, interpreter_factor=1.0)
        assert ideal.speedup() < 1.5


class TestDASSAFacade:
    def test_search_merge_analyse_roundtrip(self, das_dir):
        with DASSA(threads=2) as dassa:
            files = dassa.search(das_dir["dir"], start="170620100545", count=4)
            assert len(files) == 4
            vca = dassa.merge(files)
            simi, centers = dassa.local_similarity(
                vca,
                LocalSimilarityConfig(half_window=5, half_lag=2, stride=10),
            )
            assert simi.shape[0] == 14  # 16 channels minus 2 edge channels
            assert len(centers) == simi.shape[1]

    def test_search_and_merge_one_shot(self, das_dir):
        with DASSA() as dassa:
            vca = dassa.search_and_merge(das_dir["dir"], pattern=r"\d{12}")
            from repro.storage.vca import open_vca

            with open_vca(vca) as handle:
                assert handle.shape == (16, 720)

    def test_merge_rca(self, das_dir, tmp_path):
        with DASSA(workdir=str(tmp_path / "w")) as dassa:
            files = dassa.search(das_dir["dir"], start="170620100545", count=2)
            rca = dassa.merge(files, real=True)
            from repro.hdf5lite import File

            with File(rca, "r") as f:
                assert f.dataset("RCA").shape == (16, 240)

    def test_interferometry_via_facade(self, das_dir):
        with DASSA() as dassa:
            vca = dassa.search_and_merge(das_dir["dir"], start="170620100545", count=6)
            config = InterferometryConfig(fs=2.0, band=(0.05, 0.4), resample_q=2)
            out = dassa.interferometry(vca, config)
            assert out.shape == (16,)
            assert out[0] == pytest.approx(1.0)

    def test_noise_correlations_via_facade(self, das_dir):
        with DASSA() as dassa:
            vca = dassa.search_and_merge(das_dir["dir"], start="170620100545", count=6)
            config = InterferometryConfig(fs=2.0, band=(0.05, 0.4), resample_q=2)
            lags, ncfs = dassa.noise_correlations(vca, config, max_lag_seconds=30.0)
            assert ncfs.shape[0] == 16
            assert np.all(np.abs(lags) <= 30.0)

    def test_detect_via_facade(self):
        with DASSA() as dassa:
            simi = np.full((20, 30), 0.3)
            simi[:, 10:13] = 0.9
            centers = np.arange(30) * 50 + 25
            events = dassa.detect(simi, centers, fs=100.0)
            assert len(events) == 1
            assert events[0].kind == "earthquake"

    def test_numpy_array_source(self):
        with DASSA() as dassa:
            data = np.random.default_rng(4).normal(size=(8, 300))
            simi, centers = dassa.local_similarity(
                data, LocalSimilarityConfig(half_window=5, half_lag=1, stride=20)
            )
            assert simi.shape[0] == 6

    def test_empty_search_merge_raises(self, das_dir):
        with DASSA() as dassa:
            with pytest.raises(StorageError):
                dassa.search_and_merge(das_dir["dir"], start="300101000000")

    def test_invalid_threads(self):
        with pytest.raises(ConfigError):
            DASSA(threads=0)
