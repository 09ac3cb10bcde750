"""The lazy query planner: graph construction, rewrite rules, and the
bit-exactness contract.

The contract under test: **every optimized plan produces byte-identical
output to its unoptimized reference execution.**  For single-output
plans the reference is the eager one-branch ``run_chunks`` call over the
same operator list; for multi-output plans it is the same union-interval
plan with the shared prefix recomputed per branch (``naive=True``),
without pushdown.  A hypothesis sweep drives the equivalence
across chunk-boundary geometries for all four analysis algorithms, and
storage-level tests assert what pushdown saves at the backend: requests
always, bytes wherever the skipped holes exceed the coalescing gap.

Comparisons always hand the eager reference the *same* raw-level chunk
the optimized run resolves (``execute`` rounds the chunk up
to a multiple of the pushed stride so both runs tile identical core
targets); chunk sizes in the sweeps are pre-rounded the same way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter

from repro.core.graph import (
    CoordFrame,
    Query,
    SubsampleOp,
    verify_geometry,
)
from repro.core.interferometry import InterferometryConfig
from repro.core.local_similarity import LocalSimilarityConfig, LocalSimilarityOp
from repro.core.operators import DetrendOp, FiltFiltOp, TaperOp
from repro.core.optimizer import execute, explain, optimize
from repro.core.pipeline import Operator
from repro.core.stalta import StaLtaOp
from repro.errors import ConfigError
from repro.faults.inject import FaultInjector, clear_read_faults
from repro.storage.chunks import open_stream
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.storage.vca import create_vca
from repro.utils.iostats import IOStats
from tests.conftest import run_chain


@pytest.fixture(scope="module")
def noise():
    rng = np.random.default_rng(11)
    return rng.normal(size=(16, 4800))


@pytest.fixture(autouse=True)
def _clean_fault_hooks():
    yield
    clear_read_faults()


@pytest.fixture
def vca_setup(tmp_path):
    """Six checksummed per-minute files (16 ch x 120 samples) in a VCA;
    file index 2 covers VCA samples [240, 360)."""
    directory = tmp_path / "das"
    directory.mkdir()
    rng = np.random.default_rng(7)
    stamp = "170620100545"
    paths, blocks = [], []
    for _ in range(6):
        data = rng.normal(size=(16, 120)).astype(np.float32)
        metadata = DASMetadata(
            sampling_frequency=2.0,
            spatial_resolution=2.0,
            timestamp=stamp,
            n_channels=16,
        )
        path = str(directory / das_filename(stamp))
        write_das_file(path, data, metadata, channel_groups=False, checksum=True)
        paths.append(path)
        blocks.append(data)
        stamp = timestamp_add_seconds(stamp, 60)
    vca = create_vca(str(tmp_path / "v.h5"), paths)
    return {"vca": vca, "paths": paths, "full": np.concatenate(blocks, axis=1)}


def _band(lo, hi, fs):
    return butter(2, [lo, hi], btype="band", fs=fs)


def _round_chunk(chunk, step):
    return -(-chunk // step) * step


def _legacy(q, source, chunk, fs=None, threads=1):
    return run_chain(
        q.operators(), source, chunk_samples=chunk, fs=fs, threads=threads
    )


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------


class TestQueryGraph:
    def test_chain_orders_source_to_tip(self, noise):
        q = Query.scan(noise).select_channels(1, 9).decimate(2)
        kinds = [n.kind for n in q.chain()]
        assert kinds == ["source", "map", "map"]
        names = [op.name for op in q.operators()]
        assert names == ["select[1:9]", "subsample[2]"]

    def test_branching_shares_nodes_by_identity(self, noise):
        base = Query.scan(noise).then(StaLtaOp(4, 16))
        q1 = base.then(SubsampleOp(2))
        q2 = base.then(SubsampleOp(3))
        assert q1.chain()[1] is q2.chain()[1]
        assert q1.chain()[2] is not q2.chain()[2]

    def test_post_after_sink(self, noise):
        from repro.core.operators import CorrelateOp, FFTSink

        q = Query.scan(noise).then(FFTSink()).then(CorrelateOp(np.ones(5)))
        kinds = [n.kind for n in q.chain()]
        assert kinds == ["source", "sink", "post"]

    def test_two_sinks_rejected(self, noise):
        from repro.core.operators import FFTSink

        with pytest.raises(ConfigError):
            Query.scan(noise).then(FFTSink()).then(FFTSink())

    def test_subsample_lattice_is_absolute(self):
        """ctx.start-anchored offsets keep the kept lattice {0, q, 2q, …}
        regardless of chunking — the property the pushdown relies on."""
        data = np.arange(100, dtype=np.float64)[None, :]
        ops = [SubsampleOp(7)]
        for chunk in (100, 31, 14, 7, 5):
            out = run_chain(ops, data, chunk_samples=chunk).output
            np.testing.assert_array_equal(out, data[:, ::7])


class TestVerifyGeometry:
    def test_real_operators_pass(self):
        b, a = _band(0.5, 10.0, 100.0)
        for op in (
            DetrendOp(),
            TaperOp(0.05),
            FiltFiltOp(b, a),
            StaLtaOp(5, 20),
            SubsampleOp(8),
            LocalSimilarityOp(
                LocalSimilarityConfig(half_window=10, half_lag=3, stride=25)
            ),
        ):
            verify_geometry(op, 1000)

    def test_bad_tiling_rejected(self):
        class BadCore(Operator):
            name = "bad-core"

            def out_core(self, lo, hi):
                return lo, max(lo, hi - 1)  # drops a sample per chunk

            def out_full(self, a, b):
                return a, b

            def in_needed(self, lo, hi):
                return lo, hi

            def out_total(self, total_in):
                return total_in

            def apply(self, data, ctx):
                return data

        with pytest.raises(ConfigError, match="tile|covers"):
            verify_geometry(BadCore(), 100)

    def test_bad_containment_rejected(self):
        class Starved(Operator):
            name = "starved"
            halo = (0, 0)

            def in_needed(self, lo, hi):
                return lo + 1, hi  # reads one sample too few

            def apply(self, data, ctx):
                return data

        with pytest.raises(ConfigError, match="containment"):
            verify_geometry(Starved(), 100, chunk_sizes=[10])


# ---------------------------------------------------------------------------
# rewrite rules
# ---------------------------------------------------------------------------


class TestRewrites:
    def test_pushdown_composes_selects_and_steps(self, noise):
        q = (
            Query.scan(noise)
            .select_channels(2, 14)
            .decimate(2)
            .select_channels(1, 9)
            .decimate(3)
            .then(StaLtaOp(4, 16))
        )
        plan = optimize(q)
        assert plan.select == (3, 11)
        assert plan.step == 6
        assert plan.pushed_ops == 4
        assert [op.name for op in plan.branches[0].maps] == ["sta_lta"]

    def test_pushdown_stops_at_first_opaque_op(self, noise):
        q = (
            Query.scan(noise)
            .decimate(2)
            .then(StaLtaOp(4, 16))
            .select_channels(0, 4)  # behind sta_lta: not pushable
        )
        plan = optimize(q)
        assert plan.step == 2
        assert plan.select is None
        names = [op.name for op in plan.branches[0].maps]
        assert names == ["sta_lta", "select[0:4]"]

    def test_queries_must_share_scan(self, noise):
        q1 = Query.scan(noise).then(StaLtaOp(4, 16))
        q2 = Query.scan(noise).then(StaLtaOp(4, 16))
        with pytest.raises(ConfigError, match="same scan"):
            optimize([q1, q2])

    def test_explain_shows_before_and_after(self, noise):
        b, a = _band(0.5, 10.0, 100.0)
        base = Query.scan(noise).select_channels(0, 8).then(FiltFiltOp(b, a))
        q1 = base.then(StaLtaOp(4, 16)).with_label("trig")
        q2 = base.then(SubsampleOp(4)).with_label("thin")
        text = explain(optimize([q1, q2]))
        assert "== logical plan" in text and "== physical plan" in text
        assert "SourceView" in text and "pushdown" in text
        assert "branch trig" in text and "branch thin" in text
        assert "cse:" in text

    def test_chunk_rounded_to_step_multiple(self, noise):
        q = Query.scan(noise).decimate(8).then(StaLtaOp(4, 16))
        plan = optimize(q, chunk_samples=1001)  # rounds up to 1008
        opt = execute(plan)[0]
        ref = execute(plan, naive=True)[0]
        np.testing.assert_array_equal(opt.output, ref.output)
        legacy = _legacy(q, noise, 1008).output
        np.testing.assert_array_equal(ref.output, legacy)


# ---------------------------------------------------------------------------
# the bit-exactness contract
# ---------------------------------------------------------------------------


class TestBitExactness:
    """Optimized == naive == legacy eager, byte for byte."""

    @pytest.mark.parametrize("chunk", [4800, 1700, 640, 480])
    @pytest.mark.parametrize("step", [1, 2, 8])
    def test_sta_lta_chain(self, noise, chunk, step):
        chunk = _round_chunk(chunk, step)
        b, a = _band(0.1, 0.4, 1.0)
        q = (
            Query.scan(noise)
            .select_channels(3, 13)
            .decimate(step)
            .then(FiltFiltOp(b, a))
            .then(StaLtaOp(4, 16))
        )
        plan = optimize(q, chunk_samples=chunk)
        opt = execute(plan)[0].output
        naive = execute(plan, naive=True)[0].output
        legacy = _legacy(q, noise, chunk).output
        np.testing.assert_array_equal(opt, naive)
        np.testing.assert_array_equal(naive, legacy)

    @pytest.mark.parametrize("chunk", [4800, 1100])
    def test_local_similarity_chain(self, noise, chunk):
        chunk = _round_chunk(chunk, 2)
        cfg = LocalSimilarityConfig(half_window=10, half_lag=3, stride=25)
        q = (
            Query.scan(noise)
            .decimate(2)
            .then(TaperOp(0.05))
            .then(LocalSimilarityOp(cfg))
        )
        plan = optimize(q, chunk_samples=chunk)
        opt = execute(plan)[0].output
        legacy = _legacy(q, noise, chunk).output
        np.testing.assert_array_equal(opt, legacy)

    @pytest.mark.parametrize("chunk", [4800, 900])
    def test_interferometry_chain(self, noise, chunk):
        from repro.core.interferometry import (
            interferometry_operators,
            master_spectrum,
        )

        chunk = _round_chunk(chunk, 2)
        cfg = InterferometryConfig(fs=50.0, band=(0.5, 10.0), resample_q=2)

        def build():
            master = noise[:1, ::2].astype(np.float64)
            mfft = master_spectrum(master, cfg)
            q = Query.scan(noise, fs=100.0).decimate(2)
            for op in interferometry_operators(cfg, master_fft=mfft):
                q = q.then(op)
            return q

        plan = optimize(build(), chunk_samples=chunk)
        opt = execute(plan)[0].output
        legacy = _legacy(build(), noise, chunk, fs=100.0).output
        np.testing.assert_array_equal(opt, legacy)

    @pytest.mark.parametrize("chunk", [4800, 1300])
    def test_ncf_stacking_chain(self, noise, chunk):
        from repro.core.stacking import NCFStackSink

        chunk = _round_chunk(chunk, 2)
        cfg = InterferometryConfig(fs=50.0, band=(0.5, 10.0), resample_q=2)

        def build():
            sink = NCFStackSink(cfg, window_seconds=20.0)
            return Query.scan(noise, fs=100.0).decimate(2).then(sink)

        plan = optimize(build(), chunk_samples=chunk)
        lags_o, st_o = execute(plan)[0].output
        lags_l, st_l = _legacy(build(), noise, chunk, fs=100.0).output
        np.testing.assert_array_equal(lags_o, lags_l)
        np.testing.assert_array_equal(st_o, st_l)

    def test_multi_branch_shared_prefix(self, noise):
        b, a = _band(0.1, 0.4, 1.0)
        base = Query.scan(noise).select_channels(1, 15).then(FiltFiltOp(b, a))
        cfg = LocalSimilarityConfig(half_window=10, half_lag=3, stride=25)
        q1 = base.then(StaLtaOp(4, 16)).with_label("trig")
        q2 = base.then(LocalSimilarityOp(cfg)).with_label("simi")
        plan = optimize([q1, q2], chunk_samples=900)
        opt = execute(plan)
        naive = execute(plan, naive=True)
        for o, n in zip(opt, naive):
            np.testing.assert_array_equal(o.output, n.output)
        assert opt[0].profile.cse_hits > 0
        assert naive[0].profile.cse_hits == 0

    def test_single_chunk_detrend_whole_record(self, noise):
        """n_chunks == 1 skips the pre-pass; every operator sees
        ctx.whole — the materialised semantics must survive pushdown."""
        q = Query.scan(noise).decimate(2).then(DetrendOp())
        plan = optimize(q, chunk_samples=noise.shape[1])
        opt = execute(plan)[0].output
        legacy = _legacy(q, noise, noise.shape[1]).output
        np.testing.assert_array_equal(opt, legacy)

    def test_threaded_naive_channel_select(self, noise):
        """Eager ChannelSelectOp under threading exercises the per-level
        row-offset plumbing in the chain runner."""
        q = Query.scan(noise).select_channels(2, 14).then(StaLtaOp(4, 16))
        plan = optimize(q, chunk_samples=1100, threads=4)
        opt = execute(plan)[0].output
        naive = execute(plan, naive=True)[0].output
        legacy = _legacy(q, noise, 1100, threads=4).output
        np.testing.assert_array_equal(opt, naive)
        np.testing.assert_array_equal(naive, legacy)


class TestHypothesisEquivalence:
    """Property sweep: the contract holds for arbitrary chunk/stride/
    selection geometry, including ragged final chunks and chunks smaller
    than the composed halo."""

    @settings(max_examples=40, deadline=None)
    @given(
        chunk=st.integers(min_value=37, max_value=2600),
        step=st.sampled_from([1, 2, 3, 4, 8]),
        lo=st.integers(min_value=0, max_value=6),
        width=st.integers(min_value=3, max_value=10),
        total=st.integers(min_value=700, max_value=2400),
    )
    def test_sta_lta_sweep(self, chunk, step, lo, width, total):
        chunk = _round_chunk(chunk, step)
        rng = np.random.default_rng(chunk * 1009 + total)
        data = rng.normal(size=(16, total))
        q = (
            Query.scan(data)
            .select_channels(lo, lo + width)
            .decimate(step)
            .then(StaLtaOp(3, 11))
        )
        plan = optimize(q, chunk_samples=chunk)
        opt = execute(plan)[0].output
        legacy = _legacy(q, data, chunk).output
        np.testing.assert_array_equal(opt, legacy)

    @settings(max_examples=15, deadline=None)
    @given(
        chunk=st.integers(min_value=150, max_value=2600),
        step=st.sampled_from([1, 2, 4]),
    )
    def test_filtered_similarity_sweep(self, chunk, step):
        chunk = _round_chunk(chunk, step)
        rng = np.random.default_rng(chunk * 7 + step)
        data = rng.normal(size=(12, 2400))
        b, a = _band(0.1, 0.4, 1.0)
        cfg = LocalSimilarityConfig(half_window=8, half_lag=2, stride=20)
        q = (
            Query.scan(data)
            .decimate(step)
            .then(FiltFiltOp(b, a))
            .then(LocalSimilarityOp(cfg))
        )
        plan = optimize(q, chunk_samples=chunk)
        opt = execute(plan)[0].output
        legacy = _legacy(q, data, chunk).output
        np.testing.assert_array_equal(opt, legacy)


# ---------------------------------------------------------------------------
# storage: what pushdown saves at the backend
# ---------------------------------------------------------------------------


class TestPushdownBytes:
    """Backend accounting needs *non-checksummed* source files:
    CRC-verified reads are served at whole-block granularity, which wipes
    out pushdown savings on files smaller than one block (the ``das_dir``
    conftest fixture is unchecksummed; ``vca_setup`` is not).

    A pushed-down selection always saves requests and never reads past
    its bounding block; it saves *bytes* only where the holes it skips are
    wider than the coalescing gap (whole unselected channels, a sparse
    time stride) — narrower holes are read and discarded, bytes exchanged
    for requests."""

    def _backend_all(self, vca, queries, chunk=240, naive=False):
        """``(results, stats)`` — ``stats`` the backend traffic of the
        ``execute`` alone (source-file opens included)."""
        stats = IOStats()
        with open_stream(vca, iostats=stats) as src:
            plan = optimize(queries, chunk_samples=chunk)
            before = stats.full_snapshot()
            results = execute(plan, source=src, iostats=stats, naive=naive)
            after = stats.full_snapshot()
        return results, {k: after[k] - before[k] for k in after}

    def _backend(self, vca, query, chunk=240, naive=False):
        results, stats = self._backend_all(vca, query, chunk, naive)
        return results[0].output, stats

    def _backend_bytes(self, vca, query):
        out, stats = self._backend(vca, query)
        return out, stats["bytes_read"]

    def test_dense_decimation_trades_bytes_for_requests(self, das_dir, tmp_path):
        """decimate(8) over float32 leaves 28-byte holes: each source
        file's lattice is fetched as bounding spans — at most one request
        per row and file, no byte beyond the bounding block."""
        vca = create_vca(str(tmp_path / "b.h5"), das_dir["paths"])
        full_out, full = self._backend(vca, Query.scan(None))
        thin_out, thin = self._backend(vca, Query.scan(None).decimate(8))
        np.testing.assert_array_equal(thin_out, full_out[:, ::8])
        rows, files = das_dir["full"].shape[0], len(das_dir["paths"])
        assert thin["reads"] <= rows * files
        assert thin["bytes_read"] <= full["bytes_read"]
        # behind an operator with a lookback the strided read still equals
        # the eager subsample of the stream
        q_thin = Query.scan(None).decimate(8).then(StaLtaOp(3, 11))
        out, _ = self._backend(vca, q_thin)
        with open_stream(vca) as src:
            ref = _legacy(q_thin, src, 240).output
        np.testing.assert_array_equal(out, ref)

    def test_pushdown_costs_no_more_than_eager_reference(self, das_dir, tmp_path):
        """Against ``naive=True`` of the same plan: same bits, no more
        backend requests, no byte beyond the eager run's bounding blocks."""
        vca = create_vca(str(tmp_path / "b.h5"), das_dir["paths"])
        q = Query.scan(None).decimate(8).then(StaLtaOp(4, 16))
        opt_out, opt = self._backend(vca, q)
        ref_out, ref = self._backend(vca, q, naive=True)
        np.testing.assert_array_equal(opt_out, ref_out)
        assert 0 < opt["reads"] <= ref["reads"]
        assert 0 < opt["bytes_read"] <= ref["bytes_read"]

    def test_corun_reads_fewer_bytes_than_two_single_runs(self, das_dir, tmp_path):
        """Two detectors behind one prefix share its reads as well as its
        compute."""
        vca = create_vca(str(tmp_path / "b.h5"), das_dir["paths"])
        cfg = LocalSimilarityConfig(half_window=10, half_lag=2, stride=30)
        b, a = _band(0.1, 0.4, 1.0)
        base = Query.scan(None).then(TaperOp(0.05)).then(FiltFiltOp(b, a))
        queries = [
            base.then(StaLtaOp(4, 16)).with_label("trigger"),
            base.then(LocalSimilarityOp(cfg)).with_label("similarity"),
        ]
        together, co = self._backend_all(vca, queries)
        assert together[0].profile.cse_hits > 0
        apart = [self._backend_all(vca, q)[1] for q in queries]
        assert co["bytes_read"] < sum(io["bytes_read"] for io in apart)

    def test_decimation_reads_fewer_backend_bytes(self, tmp_path):
        """A stride whose holes (8 KiB) exceed the coalescing gap is read
        element by element: strictly fewer bytes than the full scan."""
        rng = np.random.default_rng(5)
        stamp, paths, blocks = "170620100545", [], []
        for _ in range(2):
            data = rng.normal(size=(4, 8192)).astype(np.float32)
            metadata = DASMetadata(
                sampling_frequency=100.0,
                spatial_resolution=2.0,
                timestamp=stamp,
                n_channels=4,
            )
            path = str(tmp_path / das_filename(stamp))
            write_das_file(path, data, metadata, channel_groups=False)
            paths.append(path)
            blocks.append(data)
            stamp = timestamp_add_seconds(stamp, 60)
        vca = create_vca(str(tmp_path / "sparse.h5"), paths)
        _, full = self._backend(vca, Query.scan(None), chunk=16384)
        thin_out, thin = self._backend(
            vca, Query.scan(None).decimate(2048), chunk=16384
        )
        np.testing.assert_array_equal(
            thin_out, np.concatenate(blocks, axis=1)[:, ::2048]
        )
        assert thin["bytes_read"] < full["bytes_read"] // 8
        assert thin["reads"] > full["reads"]

    def test_channel_selection_reads_fewer_backend_bytes(self, das_dir, tmp_path):
        vca = create_vca(str(tmp_path / "b2.h5"), das_dir["paths"])
        _, full_bytes = self._backend_bytes(
            vca, Query.scan(None).then(StaLtaOp(3, 11))
        )
        sel_out, sel_bytes = self._backend_bytes(
            vca, Query.scan(None).select_channels(2, 6).then(StaLtaOp(3, 11))
        )
        assert sel_bytes < full_bytes
        assert sel_out.shape[0] == 4


# ---------------------------------------------------------------------------
# absolute coordinates under pushdown (degraded reads)
# ---------------------------------------------------------------------------

VICTIM = 2  # source file index; covers VCA samples [240, 360)
V0, V1 = 240, 360


class TestPushdownCoordinates:
    def test_masked_gap_stays_in_raw_coordinates(self, vca_setup):
        """A degraded read through an optimized (selected + decimated)
        plan reports its gap span in raw source coordinates, and the
        facade frame maps output columns back onto it."""
        from repro.core import DASSA

        FaultInjector(seed=13).inject("vanish", vca_setup["paths"][VICTIM])
        dassa = DASSA(threads=1, on_error="mask", chunk_samples=200)
        ap = dassa.plan(vca_setup["vca"], channels=(2, 12), decimate=4)
        ap.sta_lta(3, 11, label="trig")
        out = ap.run()["trig"]

        gaps = dassa.last_gaps
        assert gaps is not None and len(gaps.spans) > 0
        assert all(s.t0 >= V0 and s.t1 <= V1 for s in gaps.spans)

        frame = dassa.last_frame
        assert frame == CoordFrame(channel_lo=2, channel_hi=12, sample_step=4)
        # Output columns whose raw sample falls in the masked span are
        # NaN-poisoned; columns before its lookback cone are clean.
        raw_cols = frame.raw_sample(np.arange(out.shape[1]))
        in_gap = (raw_cols >= V0) & (raw_cols < V1)
        assert in_gap.any()
        assert np.isnan(out[:, in_gap]).all()
        before = raw_cols < V0 - (11 - 1) * 4  # outside the LTA lookback
        assert np.isfinite(out[:, before]).all()

    def test_optimized_matches_naive_through_masked_source(self, vca_setup):
        """Bit-exactness holds on degraded sources too: the optimized
        strided read masks exactly the samples the eager run masks."""
        FaultInjector(seed=13).inject("vanish", vca_setup["paths"][3])
        q = (
            Query.scan(None)
            .select_channels(1, 13)
            .decimate(2)
            .then(StaLtaOp(3, 11))
        )
        plan = optimize(q, chunk_samples=150)
        with open_stream(vca_setup["vca"], on_error="mask") as src:
            opt = execute(plan, source=src)[0].output
        with open_stream(vca_setup["vca"], on_error="mask") as src:
            naive = execute(plan, source=src, naive=True)[0].output
        np.testing.assert_array_equal(opt, naive)
