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
from tests.conftest import run_chain


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

    def test_eager_call_resets_the_coordinate_frame(self):
        """``last_frame`` describes the most recent run, eager or planned."""
        from repro.core.graph import CoordFrame

        x = np.random.default_rng(5).normal(size=(12, 600))
        with DASSA(threads=1) as dassa:
            dassa.plan(x, channels=(2, 10), decimate=4).sta_lta(5, 50).run()
            assert dassa.last_frame == CoordFrame(
                channel_lo=2, channel_hi=10, sample_step=4
            )
            dassa.sta_lta(x, 5, 50)
            assert dassa.last_frame == CoordFrame()

    def test_empty_search_merge_raises(self, das_dir):
        with DASSA() as dassa:
            with pytest.raises(StorageError):
                dassa.search_and_merge(das_dir["dir"], start="300101000000")

    def test_invalid_threads(self):
        with pytest.raises(ConfigError):
            DASSA(threads=0)


# ---------------------------------------------------------------------------
# the facade's four analyses against the kernel's one-branch call
# ---------------------------------------------------------------------------

SIM = LocalSimilarityConfig(half_window=5, half_lag=2, stride=10)
INT = InterferometryConfig(fs=2.0, band=(0.05, 0.4), resample_q=2)
ANALYSES = ("local_similarity", "interferometry", "sta_lta", "stack")


def _chain(kind, src):
    """The operator list an analysis stands for, Alg. 3's master spectrum
    bound from the source's master channel."""
    from repro.core.interferometry import interferometry_operators, master_spectrum
    from repro.core.local_similarity import LocalSimilarityOp
    from repro.core.stacking import NCFStackSink
    from repro.core.stalta import StaLtaOp

    if kind == "local_similarity":
        return [LocalSimilarityOp(SIM)]
    if kind == "sta_lta":
        return [StaLtaOp(4, 16)]
    if kind == "stack":
        return [NCFStackSink(INT, 60.0, max_lag_seconds=20.0)]
    mc = INT.master_channel
    master = src.read_rows(mc, mc + 1, 0, src.n_samples)
    return interferometry_operators(INT, master_fft=master_spectrum(master, INT))


def _facade(dassa, kind, source, chunk=None):
    """One facade call, its output as a tuple of arrays."""
    if kind == "local_similarity":
        return dassa.local_similarity(source, SIM, chunk_samples=chunk)
    if kind == "sta_lta":
        return (dassa.sta_lta(source, 4, 16, chunk_samples=chunk),)
    if kind == "stack":
        return dassa.stack(
            source, INT, window_seconds=60.0, max_lag_seconds=20.0,
            chunk_samples=chunk,
        )
    return (dassa.interferometry(source, INT, chunk_samples=chunk),)


def _kernel(kind, src, chunk, threads, policy=None):
    """The same analysis as the kernel's one-branch call."""
    result = run_chain(_chain(kind, src), src, chunk, threads, policy=policy)
    if kind == "local_similarity":
        return result, (result.output, SIM.centers(src.n_samples))
    if kind == "stack":
        return result, result.output
    return result, (result.output,)


def _spans(gaps):
    return [(s.t0, s.t1, s.source, s.reason, s.attempts) for s in gaps or ()]


@pytest.fixture
def merged(das_dir, tmp_path):
    from repro.storage.vca import create_vca

    das_dir["vca"] = create_vca(str(tmp_path / "merged.h5"), das_dir["paths"])
    return das_dir


class TestFacadeIsTheKernelsOneBranchCall:
    @pytest.mark.parametrize("derived", [False, True], ids=["explicit", "derived"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("source_kind", ["array", "path", "handle", "source"])
    @pytest.mark.parametrize("kind", ANALYSES)
    def test_outputs_centers_and_phases(
        self, merged, kind, source_kind, threads, derived
    ):
        from repro.core.pipeline import in_flight
        from repro.storage.chunks import (
            DEFAULT_CHUNK_BYTES,
            as_source,
            auto_chunk_samples,
            open_stream,
        )
        from repro.storage.vca import open_vca

        def sources():
            """The facade's argument and an independent reference source."""
            if source_kind == "array":
                return merged["full"], as_source(merged["full"]), []
            if source_kind == "path":
                ref = open_stream(merged["vca"])
                return merged["vca"], ref, [ref]
            if source_kind == "handle":
                handle = open_vca(merged["vca"])
                return handle, as_source(handle), [handle]
            src, ref = open_stream(merged["vca"]), open_stream(merged["vca"])
            return src, ref, [src, ref]

        given, ref_src, opened = sources()
        try:
            chunk = (
                auto_chunk_samples(
                    ref_src.n_channels,
                    ref_src.n_samples,
                    budget_bytes=DEFAULT_CHUNK_BYTES // in_flight(threads),
                )
                if derived
                else 200
            )
            dassa = DASSA(threads=threads)
            got = _facade(dassa, kind, given, chunk=None if derived else 200)
            result, want = _kernel(kind, ref_src, chunk, threads)
        finally:
            for item in opened:
                item.close()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        profile = dassa.last_profile
        assert profile.phases.keys() == result.profile.phases.keys()
        assert (profile.chunk_samples, profile.n_chunks, profile.threads) == (
            result.profile.chunk_samples,
            result.profile.n_chunks,
            result.profile.threads,
        )
        assert dassa.last_gaps is None

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ANALYSES)
    def test_a_broken_chunk_is_the_same_gap(self, merged, kind, threads):
        """Under a ``continue`` policy the facade reports the kernel's
        gaps, span for span.  The policy covers chunk reads of the main
        pass: the one-row master read stays healthy, and so does Alg. 3's
        detrend pre-pass (the first read of the chunk)."""
        from repro.errors import DegradedReadError
        from repro.faults.policy import FailurePolicy
        from repro.storage.chunks import ArraySource

        class BrokenChunk(ArraySource):
            healthy = 1 if kind == "interferometry" else 0

            def read_strided(self, r0, r1, t0, t1, tstep=1):
                if r1 - r0 > 1 and t0 <= 300 < t1:
                    self.healthy -= 1
                    if self.healthy < 0:
                        raise DegradedReadError("injected", 300, reason="broken chunk")
                return super().read_strided(r0, r1, t0, t1, tstep)

        policy = FailurePolicy(mode="continue", retries=1, fill=0.0)
        dassa = DASSA(threads=threads, chunk_samples=120, failure_policy=policy)
        got = _facade(dassa, kind, BrokenChunk(merged["full"]))
        result, want = _kernel(
            kind, BrokenChunk(merged["full"]), 120, threads, policy=policy
        )
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert _spans(result.gaps)
        assert _spans(dassa.last_gaps) == _spans(result.gaps)

    @pytest.mark.parametrize("kind", ANALYSES)
    def test_a_vanished_file_is_the_same_masked_span(self, merged, kind):
        import os

        from repro.storage.chunks import open_stream

        os.remove(merged["paths"][2])
        dassa = DASSA(threads=2, on_error="mask", fill_value=0.0)
        got = _facade(dassa, kind, merged["vca"], chunk=200)
        with open_stream(merged["vca"], on_error="mask", fill_value=0.0) as src:
            result, want = _kernel(kind, src, 200, 2)
            masked = _spans(src.gaps)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert result.gaps is None
        assert [s[:2] for s in masked] == [(240, 360)]
        assert _spans(dassa.last_gaps) == masked


class TestAlg3MasterRead:
    """Alg. 3 reads its one-row master while the plan is built, before the
    chunk loop: that read gets the facade's ``FailurePolicy`` retries like
    every chunk read, and a read still broken after them raises in both
    modes."""

    @staticmethod
    def _source(fails):
        from repro.storage.chunks import ArraySource

        class FlakyMaster(ArraySource):
            def read_strided(self, r0, r1, t0, t1, tstep=1):
                if r1 - r0 == 1 and self.fails > 0:
                    self.fails -= 1
                    raise OSError("master row unreadable")
                return super().read_strided(r0, r1, t0, t1, tstep)

        src = FlakyMaster(np.random.default_rng(5).normal(size=(6, 4000)), fs=100.0)
        src.fails = fails
        return src

    @pytest.mark.parametrize("mode", ["fail_fast", "continue"])
    def test_a_flaky_master_read_is_retried(self, config, mode):
        from repro.faults.policy import FailurePolicy

        want = DASSA(threads=1, chunk_samples=1000).interferometry(
            self._source(0), config=config
        )
        policy = FailurePolicy(mode=mode, retries=2)
        dassa = DASSA(threads=1, chunk_samples=1000, failure_policy=policy)
        got = dassa.interferometry(self._source(2), config=config)
        np.testing.assert_array_equal(got, want)
        assert dassa.last_gaps is None or not _spans(dassa.last_gaps)

    @pytest.mark.parametrize("mode", ["fail_fast", "continue"])
    def test_a_broken_master_read_raises_in_both_modes(self, config, mode):
        from repro.faults.policy import FailurePolicy

        policy = FailurePolicy(mode=mode, retries=2)
        dassa = DASSA(threads=1, chunk_samples=1000, failure_policy=policy)
        src = self._source(3)
        with pytest.raises(OSError, match="master row unreadable"):
            dassa.interferometry(src, config=config)
        assert src.fails == 0  # one read and two retries
