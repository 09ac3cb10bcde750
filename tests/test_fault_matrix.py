"""Fault matrix: every injected fault kind crossed with every batch read
path.

For each fault in {bit-flip, truncate, vanish, slow-read} injected into
one VCA source file, every read path (collective-per-file, the
communication-avoiding reader, an LAV view — a ``SourceView`` — and the
streamed DASSA facade) must

* **fail fast** (the default): propagate a *typed* error —
  ``CorruptDataError`` for a checksum mismatch, ``FileNotFoundError``
  for a vanished file, a storage/OS error for truncation;

and the paths that offer a degraded mode (the LAV view over
``open_vca(..., on_error="mask")`` and the facade) must also

* **mask**: complete with the victim's span fill-valued, reported in a
  :class:`~repro.storage.gaps.GapMap`, and be bit-identical to the clean
  data outside the masked (halo-widened, for streamed operators) spans.

``slow-read`` is the benign row of the matrix: it must not fail, not
mask, and not report gaps on any path.

Also covers the checkpoint-tail reader (`read_sample_range`), a pooled
VCA handle's return to fail-fast, the degraded-read modes that do not
exist, and bounded-retry absorption of transient read faults.
"""

import os

import numpy as np
import pytest

from repro.core.framework import DASSA
from repro.errors import (
    ConfigError,
    CorruptDataError,
    MPIError,
    ReproError,
    StorageError,
)
from repro.faults.inject import FaultInjector, clear_read_faults, install_read_fault
from repro.hdf5lite import FilePool
from repro.rt.checkpoint import read_sample_range
from repro.simmpi import run_spmd
from repro.storage.chunks import SourceView
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.storage.parallel_read import (
    read_vca_collective_per_file,
    read_vca_communication_avoiding,
)
from repro.storage.vca import create_vca, open_vca

MATRIX_KINDS = ("bit-flip", "truncate", "vanish", "slow-read")

# Which typed error each permanent fault must raise in fail-fast mode.
EXPECT = {
    "bit-flip": CorruptDataError,
    "truncate": (ReproError, OSError),
    "vanish": FileNotFoundError,
    "slow-read": None,
}

VICTIM = 2  # source file index; covers VCA samples [240, 360)
V0, V1 = 240, 360


@pytest.fixture(autouse=True)
def _clean_hooks():
    yield
    clear_read_faults()


@pytest.fixture
def faulted(tmp_path):
    """Six checksummed per-minute files merged into one VCA."""
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
    return {
        "vca": vca,
        "paths": paths,
        "full": np.concatenate(blocks, axis=1),
    }


def _inject(kind, path):
    inj = FaultInjector(seed=13)
    if kind == "slow-read":
        inj.inject(kind, path, delay=0.005)
    else:
        inj.inject(kind, path)


def _check_masked(out, full, kind):
    """Masked-mode output: clean outside the victim span, NaN inside."""
    if kind == "slow-read":
        np.testing.assert_array_equal(out, full)
        return
    mask = np.zeros(full.shape[1], dtype=bool)
    mask[V0:V1] = True
    np.testing.assert_array_equal(out[:, ~mask], full[:, ~mask])
    assert np.isnan(out[:, mask]).all()


@pytest.mark.parametrize("kind", MATRIX_KINDS)
class TestFaultMatrix:
    def _check_spmd_fail_fast(self, fn, kind, size=2):
        with pytest.raises(MPIError) as err:
            run_spmd(fn, size)
        assert isinstance(err.value.__cause__, EXPECT[kind])

    def test_collective_per_file(self, faulted, kind):
        _inject(kind, faulted["paths"][VICTIM])

        def failfast(comm):
            return read_vca_collective_per_file(comm, faulted["vca"])

        if kind == "slow-read":
            ok = run_spmd(failfast, 2)
            np.testing.assert_array_equal(
                np.concatenate(ok.results, axis=0), faulted["full"]
            )
        else:
            self._check_spmd_fail_fast(failfast, kind)

    def test_communication_avoiding(self, faulted, kind):
        _inject(kind, faulted["paths"][VICTIM])

        def failfast(comm):
            return read_vca_communication_avoiding(comm, faulted["vca"])

        if kind == "slow-read":
            ok = run_spmd(failfast, 2)
            np.testing.assert_array_equal(
                np.concatenate(ok.results, axis=0), faulted["full"]
            )
        else:
            self._check_spmd_fail_fast(failfast, kind)

    def test_lav_view(self, faulted, kind):
        _inject(kind, faulted["paths"][VICTIM])
        with open_vca(faulted["vca"], on_error="mask") as handle:
            view = SourceView(handle, channel_lo=2, channel_hi=10)
            out = view.read(0, view.n_samples)
            spans = sorted((s.t0, s.t1) for s in handle.gaps)
        _check_masked(out, faulted["full"][2:10], kind)
        assert spans == ([] if kind == "slow-read" else [(V0, V1)])

        if kind == "slow-read":
            with open_vca(faulted["vca"]) as handle:
                np.testing.assert_array_equal(
                    SourceView(handle).read(0, handle.n_samples), faulted["full"]
                )
        else:
            with open_vca(faulted["vca"]) as handle:
                with pytest.raises(EXPECT[kind]):
                    SourceView(handle).read(0, handle.n_samples)

    def test_streamed_dassa(self, faulted, kind):
        nsta, nlta = 4, 16
        ref = DASSA(threads=1).sta_lta(
            faulted["vca"], nsta, nlta, chunk_samples=200
        )
        _inject(kind, faulted["paths"][VICTIM])

        d = DASSA(threads=1, on_error="mask")
        out = d.sta_lta(faulted["vca"], nsta, nlta, chunk_samples=200)
        if kind == "slow-read":
            np.testing.assert_array_equal(out, ref)
            assert d.last_gaps is None
            return
        gaps = d.last_gaps
        assert gaps is not None and gaps
        assert all(V0 <= s.t0 and s.t1 <= V1 for s in gaps)
        # Equal to the clean run outside the affected cone (the masked
        # input spans widened by the STA/LTA lookback halo).  Tolerance,
        # not bit-identity: the kernel's running sums cancel the masked
        # prefix to ~1e-14, unlike the pure read paths above.
        cone = gaps.widened(nlta - 1).time_mask(out.shape[1])
        assert cone.any() and not cone.all()
        np.testing.assert_allclose(
            out[:, ~cone], ref[:, ~cone], rtol=1e-9, atol=1e-12
        )

        with pytest.raises(EXPECT[kind]):
            DASSA(threads=1).sta_lta(
                faulted["vca"], nsta, nlta, chunk_samples=200
            )


@pytest.mark.parametrize("kind", ["bit-flip", "truncate", "vanish"])
class TestMaskedDetectors:
    """``on_error="mask"`` carries Algorithms 2 and 3 through a lost
    file end to end, threaded and chunked."""

    def test_alg2_is_bit_identical_outside_the_window_cone(self, faulted, kind):
        from repro.core.local_similarity import LocalSimilarityConfig

        cfg = LocalSimilarityConfig(half_window=10, half_lag=3, stride=10)
        clean, centers = DASSA(threads=2).local_similarity(
            faulted["vca"], cfg, chunk_samples=200
        )
        _inject(kind, faulted["paths"][VICTIM])
        d = DASSA(threads=2, on_error="mask")
        masked, masked_centers = d.local_similarity(
            faulted["vca"], cfg, chunk_samples=200
        )
        np.testing.assert_array_equal(masked_centers, centers)
        gaps = d.last_gaps
        assert gaps is not None and all(V0 <= s.t0 and s.t1 <= V1 for s in gaps)
        # windows are sample-local: a column is touched only if
        # centre +- (half_window + half_lag) reaches a masked sample
        lost = gaps.widened(cfg.half_window + cfg.half_lag).time_mask(
            faulted["full"].shape[1]
        )
        cone = lost[np.asarray(centers, dtype=int)]
        assert cone.any() and not cone.all()
        np.testing.assert_array_equal(masked[:, ~cone], clean[:, ~cone])

    def test_alg3_equals_fill_then_compute(self, faulted, kind):
        """Every Alg. 3 output couples to the master channel over the whole
        record, so no column is "outside" a gap: the masked run must equal
        the same algorithm on an array with the identical spans filled."""
        from repro.core.interferometry import InterferometryConfig

        cfg = InterferometryConfig(fs=2.0, band=(0.05, 0.4), resample_q=2)
        _inject(kind, faulted["paths"][VICTIM])
        d = DASSA(threads=2, on_error="mask")
        masked = d.interferometry(faulted["vca"], cfg, chunk_samples=200)
        assert d.last_gaps
        filled = faulted["full"].astype(np.float64)
        for span in d.last_gaps:
            filled[:, span.t0 : span.t1] = np.nan
        reference = DASSA(threads=2).interferometry(filled, cfg, chunk_samples=200)
        np.testing.assert_array_equal(masked, reference)


class TestMultiBranchChunkPolicy:
    """A two-branch plan honours the per-chunk failure policy: one bad
    chunk becomes one reported gap per branch, in that branch's output
    coordinates, instead of a crash or a silently wrong span."""

    CHUNK = 120

    def _run(self, vca, policy=None):
        from repro.core.graph import Query
        from repro.core.local_similarity import (
            LocalSimilarityConfig,
            LocalSimilarityOp,
        )
        from repro.core.optimizer import execute, optimize
        from repro.core.stalta import StaLtaOp

        cfg = LocalSimilarityConfig(half_window=5, half_lag=2, stride=10)
        base = Query.scan(vca)
        plan = optimize(
            [
                base.then(StaLtaOp(4, 16)).with_label("trig"),
                base.then(LocalSimilarityOp(cfg)).with_label("simi"),
            ],
            chunk_samples=self.CHUNK,
            threads=2,
        )
        return execute(plan, policy=policy)

    def _break_one_chunk(self, faulted, policy):
        # Every attempt at the first chunk touching the victim file
        # fails on its first backend read; later chunks read cleanly.
        install_read_fault(
            faulted["paths"][VICTIM],
            "raise-on-nth-read",
            fail_reads=policy.retries + 1,
        )

    def test_continue_fills_every_branch_and_reports_gaps(self, faulted):
        from repro.faults.policy import FailurePolicy

        clean = self._run(faulted["vca"])
        policy = FailurePolicy(mode="continue", retries=1, fill=-7.0)
        self._break_one_chunk(faulted, policy)
        broken = self._run(faulted["vca"], policy=policy)

        assert [r.gaps is not None for r in broken] == [True, True]
        for ref, got in zip(clean, broken):
            (span,) = got.gaps.spans  # one gap per branch
            assert span.attempts == policy.retries + 1
            assert "DegradedReadError" in span.reason
            cols = got.gaps.time_mask(got.output.shape[1])
            assert 0 < cols.sum() < cols.size
            assert (got.output[:, cols] == policy.fill).all()
            np.testing.assert_array_equal(
                got.output[:, ~cols], ref.output[:, ~cols]
            )
        # Output coordinates: the same-rate trigger owns the chunk's
        # samples, the strided similarity grid owns its window indices.
        trig, simi = (r.gaps.spans[0] for r in broken)
        assert (trig.t0, trig.t1) == (V0 - self.CHUNK, V0)
        assert (simi.t0, simi.t1) != (trig.t0, trig.t1)
        assert simi.t1 - simi.t0 == self.CHUNK // 10

    def test_facade_merges_branch_gaps(self, faulted):
        from repro.faults.policy import FailurePolicy

        policy = FailurePolicy(mode="continue", retries=0)
        self._break_one_chunk(faulted, policy)
        d = DASSA(threads=2, chunk_samples=self.CHUNK, failure_policy=policy)
        out = d.plan(faulted["vca"]).sta_lta(4, 16, label="trig").run()
        assert np.isnan(out["trig"]).any()
        assert d.last_gaps is not None and len(d.last_gaps) == 1

    def test_fail_fast_raises_typed_error(self, faulted):
        from repro.errors import DegradedReadError
        from repro.faults.policy import FailurePolicy

        policy = FailurePolicy(retries=1)
        self._break_one_chunk(faulted, policy)
        with pytest.raises(DegradedReadError):
            self._run(faulted["vca"], policy=policy)


class TestTransientFaultsRetried:
    """One failed read then success: bounded retry absorbs it silently."""

    def test_collective_reader_retries(self, faulted):
        install_read_fault(faulted["paths"][VICTIM], "raise-on-nth-read", fail_reads=1)

        def fn(comm):
            return read_vca_collective_per_file(comm, faulted["vca"])

        result = run_spmd(fn, 2)
        out = np.concatenate(result.results, axis=0)
        np.testing.assert_array_equal(out, faulted["full"])

    def test_communication_avoiding_reader_retries(self, faulted):
        install_read_fault(faulted["paths"][VICTIM], "raise-on-nth-read", fail_reads=1)

        def fn(comm):
            return read_vca_communication_avoiding(comm, faulted["vca"])

        result = run_spmd(fn, 4)
        out = np.concatenate(result.results, axis=0)
        np.testing.assert_array_equal(out, faulted["full"])


class TestReadSampleRangeDegraded:
    """The checkpoint-tail reader absorbs a transient fault and raises on
    a lost tail file (the RT service turns that into ``resume_error``)."""

    def _files(self, das_dir):
        return [(p, 120) for p in das_dir["paths"]]

    def test_raise_mode_propagates(self, das_dir):
        files = self._files(das_dir)
        os.remove(das_dir["paths"][3])
        with pytest.raises(FileNotFoundError):
            read_sample_range(files, 300, 500)

    def test_all_files_lost_is_an_error(self, das_dir):
        files = self._files(das_dir)
        os.remove(das_dir["paths"][3])
        with pytest.raises(FileNotFoundError):
            read_sample_range(files, 400, 450)

    def test_transient_fault_retried(self, das_dir):
        files = self._files(das_dir)
        install_read_fault(das_dir["paths"][2], "raise-on-nth-read", fail_reads=1)
        out = read_sample_range(files, 250, 350)
        np.testing.assert_array_equal(out, das_dir["full"][:, 250:350])


def test_a_pooled_handle_fails_fast_again_after_a_masked_one_closes(faulted):
    os.remove(faulted["paths"][VICTIM])
    with FilePool() as pool:
        with open_vca(faulted["vca"], pool=pool, on_error="mask") as masked:
            out = masked.dataset[:, :]
            assert [(s.t0, s.t1) for s in masked.gaps] == [(V0, V1)]
        assert np.isnan(out[:, V0:V1]).all()
        with open_vca(faulted["vca"], pool=pool) as plain:
            assert plain._file is masked._file  # the pool's one handle
            with pytest.raises(FileNotFoundError):
                plain.dataset[:, :]


def test_a_degraded_read_has_one_mode(faulted):
    with pytest.raises(StorageError, match="'raise' or 'mask'"):
        open_vca(faulted["vca"], on_error="skip")
    with pytest.raises(ConfigError, match="'raise' or 'mask'"):
        DASSA(on_error="skip")
