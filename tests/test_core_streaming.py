"""The streaming execution core: chunk-boundary equivalence.

The contract under test: running an operator chain chunk-at-a-time with
overlap-aware ghost zones produces the *same numbers* as running it on
the whole array — across chunk sizes (including chunks smaller than the
filtfilt halo and a ragged final chunk), thread counts, and both
Algorithm 2 and Algorithm 3 graphs.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import dassa_run, matlab_style_run
from repro.core.graph import Query
from repro.core.interferometry import (
    InterferometryConfig,
    interferometry_block,
    interferometry_operators,
    master_spectrum,
    preprocess,
    preprocess_operators,
)
from repro.core.local_similarity import (
    LocalSimilarityConfig,
    LocalSimilarityOp,
    local_similarity_block,
)
from repro.core.operators import DetrendOp, FFTSink, FiltFiltOp
from repro.core.optimizer import optimize
from repro.core.pipeline import (
    Branch,
    IncrementalRunner,
    OpContext,
    SinkOp,
    run_materialized,
)
from repro.core.stacking import (
    NCFStackSink,
    linear_stack,
    phase_weighted_stack,
    window_ncfs,
)
from repro.core.stalta import StaLtaOp, classic_sta_lta
from repro.daslib import settle_length
from repro.errors import ConfigError
from repro.storage.chunks import ArraySource, as_source, iter_intervals
from repro.utils.timer import Timer
from tests.conftest import run_chain


@pytest.fixture(scope="module")
def noise():
    rng = np.random.default_rng(11)
    # A slope + offset per channel makes detrend's global fit matter.
    data = rng.standard_normal((6, 4000))
    data += np.linspace(-2, 2, 6)[:, None]
    data += np.linspace(0, 1.5, 4000)[None, :] * np.arange(1, 7)[:, None]
    return data


CFG = InterferometryConfig(fs=200.0, band=(2.0, 30.0), resample_q=3)

# Every door an operator list enters through, and what each must refuse.
CHAIN_ENTRIES = {
    "Branch.of": Branch.of,
    "IncrementalRunner": lambda ops: IncrementalRunner(ops, 4),
    "run_materialized": lambda ops: run_materialized(ops, np.zeros((4, 64))),
    "optimize": lambda ops: optimize(
        functools.reduce(Query.then, ops, Query.scan(np.zeros((4, 64))))
    ),
}
BAD_CHAINS = {
    "second_sink": ([FFTSink(), FFTSink()], "at most one sink"),
    "non_operator": ([StaLtaOp(4, 16), "taper"], "not an operator"),
    "duplicate_names": ([StaLtaOp(4, 16), StaLtaOp(8, 32)], "duplicate operator name"),
}


def stream_interferometry(source, config, **run):
    """Algorithm 3 as a direct kernel call: the master spectrum read and
    bound by hand, the chain streamed by the kernel's one-branch call."""
    src = as_source(source, fs=config.fs)
    mc = config.master_channel
    mfft = master_spectrum(src.read_rows(mc, mc + 1, 0, src.n_samples), config)
    return run_chain(interferometry_operators(config, master_fft=mfft), src, **run)


class TestInterferometryStreaming:
    def reference(self, noise):
        mc = CFG.master_channel
        mfft = master_spectrum(noise[mc : mc + 1], CFG)
        return interferometry_block(noise, CFG, master_fft=mfft)

    @pytest.mark.parametrize("chunk", [None, 50, 333, 1024])
    def test_equivalence_across_chunk_sizes(self, noise, chunk):
        # chunk=50 is far below the filtfilt halo; 333 leaves a ragged
        # final chunk (4000 = 12*333 + 4).
        b, a = CFG.coefficients()
        assert settle_length(b, a) > 333
        result = stream_interferometry(noise, CFG, chunk_samples=chunk)
        assert result.output == pytest.approx(self.reference(noise), abs=1e-9)
        assert result.profile.n_chunks == (
            1 if chunk is None else -(-4000 // chunk)
        )

    def test_threads_match_single_thread(self, noise):
        ref = stream_interferometry(noise, CFG, chunk_samples=700, threads=1)
        multi = stream_interferometry(noise, CFG, chunk_samples=700, threads=3)
        assert multi.output == pytest.approx(ref.output, abs=1e-12)

    def test_preprocess_chain_matches_whole_array(self, noise):
        whole = preprocess(noise, CFG)
        result = run_chain(
            preprocess_operators(CFG), noise, chunk_samples=257, fs=CFG.fs
        )
        assert result.output.shape == whole.shape
        assert result.output == pytest.approx(whole, abs=1e-9)

    def test_core_intervals_tile_in_order(self, noise):
        """A sink is handed the owned core intervals in order, ghost
        zones already stitched away."""

        class Recorder(SinkOp):
            name = "record"

            def init(self, n_channels, total_in, fs_in):
                return []

            def consume(self, state, chunk, ctx):
                state.append(((ctx.start, ctx.stop), chunk.copy()))

            def finalize(self, state):
                return state

        whole = preprocess(noise, CFG)
        ops = preprocess_operators(CFG) + [Recorder()]
        seen = 0
        result = run_chain(ops, noise, chunk_samples=900, fs=CFG.fs)
        for (lo, hi), block in result.output:
            assert lo == seen
            assert block == pytest.approx(whole[:, lo:hi], abs=1e-9)
            seen = hi
        assert seen == whole.shape[-1]

    def test_profile_accounts_bytes_and_phases(self, noise):
        result = stream_interferometry(noise, CFG, chunk_samples=800)
        profile = result.profile
        # Halo re-reads make streamed bytes exceed the raw array.
        assert profile.bytes_streamed > noise.nbytes
        assert profile.peak_resident_bytes > 0
        for name in ("read", "detrend", "filtfilt", "resample", "fft", "correlate"):
            assert name in profile.phases

    def test_streamed_peak_below_materialized(self, noise):
        materialized = matlab_style_run(noise, CFG)
        streamed = dassa_run(noise, CFG, threads=1, chunk_samples=500)
        assert streamed.output == pytest.approx(materialized.output, abs=1e-9)
        assert (
            streamed.profile.peak_resident_bytes
            < materialized.profile.peak_resident_bytes
        )

    def test_baseline_and_streamed_share_phase_names(self, noise):
        mat_timer, str_timer = Timer(), Timer()
        matlab_style_run(noise, CFG, timer=mat_timer)
        dassa_run(noise, CFG, timer=str_timer, chunk_samples=1000)
        expected = {
            "read", "detrend:prepass", "detrend", "taper", "filtfilt",
            "resample", "fft", "correlate",
        }
        assert set(mat_timer.phases) == expected
        # Profiling parity: both policies populate the same phase set; the
        # chunked run adds only the kernel's up-front chunk planning.
        assert set(str_timer.phases) == expected | {"plan"}


SIMI_CFG = LocalSimilarityConfig(
    half_window=10, channel_offset=2, half_lag=3, stride=7
)


class TestLocalSimilarityStreaming:
    @pytest.mark.parametrize("chunk", [None, 29, 77, 250])
    def test_bit_exact_across_chunk_sizes(self, chunk):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((9, 500))
        ref, centers = local_similarity_block(data, SIMI_CFG)
        result = run_chain(
            [LocalSimilarityOp(SIMI_CFG)], data, chunk_samples=chunk
        )
        assert np.array_equal(SIMI_CFG.centers(data.shape[1]), centers)
        # Same kernel on the same windows: exact, not approximate.
        assert np.array_equal(result.output, ref)

    def test_threads_split_channel_axis(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((11, 400))
        ref, _ = local_similarity_block(data, SIMI_CFG)
        result = run_chain(
            [LocalSimilarityOp(SIMI_CFG)], data, chunk_samples=90, threads=3
        )
        assert np.array_equal(result.output, ref)

    @settings(max_examples=20, deadline=None)
    @given(
        chunk=st.integers(8, 400),
        stride=st.integers(1, 30),
        half_window=st.integers(1, 12),
        half_lag=st.integers(0, 4),
    )
    def test_property_chunking_never_changes_output(
        self, chunk, stride, half_window, half_lag
    ):
        config = LocalSimilarityConfig(
            half_window=half_window,
            channel_offset=1,
            half_lag=half_lag,
            stride=stride,
        )
        rng = np.random.default_rng(half_window * 1000 + stride)
        data = rng.standard_normal((5, 300))
        ref, _ = local_similarity_block(data, config)
        result = run_chain(
            [LocalSimilarityOp(config)], data, chunk_samples=chunk
        )
        assert result.output.shape == ref.shape
        assert np.array_equal(result.output, ref)


class TestStaLtaStreaming:
    @pytest.mark.parametrize("chunk", [37, 64, 500, None])
    def test_matches_whole_array(self, chunk):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((5, 2000))
        ref = classic_sta_lta(data, 20, 100, axis=-1)
        result = run_chain([StaLtaOp(20, 100)], data, chunk_samples=chunk)
        assert result.output == pytest.approx(ref, rel=1e-7, abs=1e-10)

    def test_chunks_shorter_than_lta_window(self):
        # classic_sta_lta rejects records shorter than nlta outright;
        # the streamed form must still handle *chunks* that short.
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 600))
        ref = classic_sta_lta(data, 10, 150, axis=-1)
        result = run_chain([StaLtaOp(10, 150)], data, chunk_samples=60)
        assert result.output == pytest.approx(ref, rel=1e-7, abs=1e-10)


STACK_CFG = InterferometryConfig(fs=100.0, band=(1.0, 20.0), resample_q=2)


class TestStackingStreaming:
    @pytest.mark.parametrize("method", ["linear", "pws"])
    @pytest.mark.parametrize("chunk", [123, 700, None])
    def test_matches_window_cube_stack(self, method, chunk):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((4, 3000))
        lags, cube = window_ncfs(
            data, STACK_CFG, window_seconds=5.0, overlap=0.5, max_lag_seconds=2.0
        )
        whole = linear_stack(cube) if method == "linear" else phase_weighted_stack(cube)
        sink = NCFStackSink(
            STACK_CFG, 5.0, overlap=0.5, max_lag_seconds=2.0, method=method
        )
        result = run_chain([sink], data, chunk_samples=chunk)
        streamed_lags, streamed = result.output
        assert streamed_lags == pytest.approx(lags)
        assert streamed == pytest.approx(whole, rel=1e-9, abs=1e-12)

    def test_sink_never_holds_window_cube(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((4, 3000))
        _, cube = window_ncfs(
            data, STACK_CFG, window_seconds=5.0, overlap=0.5, max_lag_seconds=2.0
        )
        sink = NCFStackSink(STACK_CFG, 5.0, overlap=0.5, max_lag_seconds=2.0)
        result = run_chain([sink], data, chunk_samples=300)
        assert result.profile.peak_resident_bytes < cube.nbytes + data.nbytes


class TestStreamingFromStorage:
    def test_vca_stream_equals_materialized(self, das_dir, tmp_path):
        from repro.storage.chunks import open_stream
        from repro.storage.vca import create_vca
        from repro.utils.iostats import IOStats

        vca_path = create_vca(str(tmp_path / "merged.h5"), das_dir["paths"])
        config = InterferometryConfig(
            fs=2.0, band=(0.05, 0.4), filter_order=2, resample_q=2
        )
        full = das_dir["full"].astype(np.float64)
        mc = config.master_channel
        ref = interferometry_block(
            full, config, master_fft=master_spectrum(full[mc : mc + 1], config)
        )
        iostats = IOStats()
        with open_stream(vca_path, iostats=iostats) as src:
            assert src.fs == 2.0
            result = stream_interferometry(
                src, config, chunk_samples=200, iostats=iostats
            )
        assert result.output == pytest.approx(ref, abs=1e-9)
        assert result.profile.bytes_read is not None
        assert result.profile.bytes_read > 0


class TestRunnerContracts:
    def test_detrend_prepass_matches_global_fit(self, noise):
        op = DetrendOp()
        acc = op.prepass_init(noise.shape[0], noise.shape[1])
        for lo, hi in iter_intervals(noise.shape[1], 613):
            op.prepass_update(acc, noise[:, lo:hi], lo)
        state = op.prepass_finalize(acc)
        from repro.daslib import detrend

        chunk = (1100, 2300)
        ctx = OpContext(
            start=chunk[0], stop=chunk[1], total=noise.shape[1], state=state
        )
        streamed = op.apply(noise[:, chunk[0] : chunk[1]], ctx)
        whole = detrend(noise, axis=-1)[:, chunk[0] : chunk[1]]
        assert streamed == pytest.approx(whole, abs=1e-9)

    def test_sink_rejects_out_of_order_chunks(self):
        sink = FFTSink()
        state = sink.init(2, 100, 10.0)
        sink.consume(state, np.zeros((2, 40)), OpContext(start=0, stop=40, total=100))
        with pytest.raises(ConfigError):
            sink.consume(
                state, np.zeros((2, 40)), OpContext(start=60, stop=100, total=100)
            )

    def test_an_empty_chain_is_a_pure_read(self, noise):
        np.testing.assert_array_equal(run_chain([], noise, 700).output, noise)

    @pytest.mark.parametrize(
        "entry, bad",
        [
            (entry, bad)
            for entry in CHAIN_ENTRIES
            for bad in BAD_CHAINS
            # Query.then already refuses a second sink and a non-operator
            if entry != "optimize" or bad == "duplicate_names"
        ],
    )
    def test_every_entry_refuses_what_the_split_refuses(self, entry, bad):
        ops, message = BAD_CHAINS[bad]
        with pytest.raises(ConfigError, match=message):
            CHAIN_ENTRIES[entry](ops)

    def test_run_materialized_phases_match_streamed(self, noise):
        timer = Timer()
        b, a = CFG.coefficients()
        run_materialized([FiltFiltOp(b, a)], noise, fs=CFG.fs, timer=timer)
        assert set(timer.phases) == {"read", "filtfilt"}

    def test_bytes_streamed_counts_halo_rereads(self, noise):
        src = ArraySource(noise, fs=CFG.fs)
        b, a = CFG.coefficients()
        run_chain([FiltFiltOp(b, a)], src, chunk_samples=400)
        assert src.bytes_streamed > noise.nbytes
