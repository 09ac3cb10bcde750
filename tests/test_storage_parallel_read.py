"""Tests for the parallel read strategies (paper Fig. 5) and their
model-mode cost evaluation."""

import numpy as np
import pytest

from repro.cluster import cori_haswell, laptop
from repro.errors import StorageError
from repro.simmpi import run_spmd
from repro.storage.model import (
    files_per_rank,
    model_collective_per_file,
    model_communication_avoiding,
    model_rca_create,
    model_rca_read,
    model_search,
    model_vca_create,
)
from repro.storage.parallel_read import (
    channel_block,
    read_rca_direct,
    read_vca_collective_per_file,
    read_vca_communication_avoiding,
)
from repro.storage.rca import create_rca
from repro.storage.vca import create_vca


@pytest.fixture
def merged(das_dir, tmp_path):
    vca_path = create_vca(str(tmp_path / "v.h5"), das_dir["paths"])
    rca_path = create_rca(str(tmp_path / "r.h5"), das_dir["paths"])
    return {"vca": vca_path, "rca": rca_path, "full": das_dir["full"]}


class TestChannelBlock:
    def test_even_partition(self):
        assert channel_block(16, 4, 0) == (0, 4)
        assert channel_block(16, 4, 3) == (12, 16)

    def test_uneven_partition_covers_everything(self):
        blocks = [channel_block(11, 3, r) for r in range(3)]
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 11
        for (a, b), (c, d) in zip(blocks, blocks[1:]):
            assert b == c
        sizes = [b - a for a, b in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid(self):
        with pytest.raises(StorageError):
            channel_block(8, 0, 0)
        with pytest.raises(StorageError):
            channel_block(8, 2, 5)

    def test_files_per_rank_round_robin(self):
        assert files_per_rank(10, 4, 0) == 3
        assert files_per_rank(10, 4, 1) == 3
        assert files_per_rank(10, 4, 2) == 2
        assert sum(files_per_rank(10, 4, r) for r in range(4)) == 10


def _assemble(results, full, size):
    """Stack per-rank channel blocks and compare with the ground truth."""
    stacked = np.concatenate(results, axis=0)
    np.testing.assert_array_equal(stacked, full)


class TestCollectivePerFile:
    def test_correctness(self, merged):
        cluster = laptop()

        def fn(comm):
            return read_vca_collective_per_file(comm, merged["vca"], cluster.storage)

        result = run_spmd(fn, 4, cluster=cori_haswell(4), ranks_per_node=1)
        _assemble(result.results, merged["full"], 4)

    def test_uneven_ranks(self, merged):
        def fn(comm):
            return read_vca_collective_per_file(comm, merged["vca"])

        result = run_spmd(fn, 3)
        _assemble(result.results, merged["full"], 3)

    def test_one_broadcast_per_file(self, merged):
        def fn(comm):
            read_vca_collective_per_file(comm, merged["vca"])
            return [op for op, _, _ in comm.tracer.schedule() if op == "bcast"]

        result = run_spmd(fn, 4)
        assert all(len(bcasts) == 6 for bcasts in result.results)  # 6 files


class TestCommunicationAvoiding:
    def test_correctness(self, merged):
        cluster = laptop()

        def fn(comm):
            return read_vca_communication_avoiding(
                comm, merged["vca"], cluster.storage
            )

        result = run_spmd(fn, 4, cluster=cori_haswell(4), ranks_per_node=1)
        _assemble(result.results, merged["full"], 4)

    def test_more_ranks_than_files(self, merged):
        def fn(comm):
            return read_vca_communication_avoiding(comm, merged["vca"])

        result = run_spmd(fn, 8)
        _assemble(result.results, merged["full"], 8)

    def test_single_alltoall(self, merged):
        def fn(comm):
            read_vca_communication_avoiding(comm, merged["vca"])
            return [op for op, _, _ in comm.tracer.schedule() if op == "alltoallv"]

        result = run_spmd(fn, 4)
        assert all(len(a2a) == 1 for a2a in result.results)

    def test_faster_than_collective_in_virtual_time(self, merged):
        """The headline Fig. 7 property at small scale: the comm-avoiding
        reader's virtual makespan beats collective-per-file."""
        cluster = cori_haswell(8)

        def coll(comm):
            read_vca_collective_per_file(comm, merged["vca"], cluster.storage)

        def avoid(comm):
            read_vca_communication_avoiding(comm, merged["vca"], cluster.storage)

        t_coll = run_spmd(coll, 8, cluster=cluster, ranks_per_node=1).makespan
        t_avoid = run_spmd(avoid, 8, cluster=cluster, ranks_per_node=1).makespan
        assert t_avoid < t_coll


class TestUnevenFileLengths:
    """Acquisition restarts produce short files; the readers must handle
    sources of different time lengths."""

    @pytest.fixture
    def uneven(self, tmp_path):
        from repro.storage.dasfile import write_das_file
        from repro.storage.metadata import DASMetadata, timestamp_add_seconds

        rng = np.random.default_rng(7)
        stamp = "170620100545"
        blocks, paths = [], []
        for length in (120, 37, 120, 64):
            block = rng.normal(size=(16, length)).astype(np.float32)
            path = str(tmp_path / f"u_{stamp}.h5")
            write_das_file(
                path,
                block,
                DASMetadata(sampling_frequency=2.0, timestamp=stamp, n_channels=16),
                channel_groups=False,
            )
            blocks.append(block)
            paths.append(path)
            stamp = timestamp_add_seconds(stamp, 60)
        vca = create_vca(str(tmp_path / "uv.h5"), paths)
        return vca, np.concatenate(blocks, axis=1)

    def test_collective_reader(self, uneven):
        vca, full = uneven

        def fn(comm):
            return read_vca_collective_per_file(comm, vca)

        result = run_spmd(fn, 4)
        np.testing.assert_array_equal(
            np.concatenate(result.results, axis=0), full
        )

    def test_commavoid_reader(self, uneven):
        vca, full = uneven

        def fn(comm):
            return read_vca_communication_avoiding(comm, vca)

        result = run_spmd(fn, 3)
        np.testing.assert_array_equal(
            np.concatenate(result.results, axis=0), full
        )


class TestRCADirect:
    def test_correctness(self, merged):
        def fn(comm):
            return read_rca_direct(comm, merged["rca"])

        result = run_spmd(fn, 4)
        _assemble(result.results, merged["full"], 4)

    def test_single_request_per_rank(self, merged):
        from repro.utils.iostats import IOStats

        def fn(comm):
            return read_rca_direct(comm, merged["rca"])

        # a rank's channel block of a row-major array is contiguous:
        # verify via a solo read with instrumented I/O
        stats = IOStats()
        from repro.hdf5lite import File

        with File(merged["rca"], "r", iostats=stats) as f:
            before = stats.reads
            f.dataset("RCA")[0:4, :]
            assert stats.reads - before == 1


class TestCostModels:
    def test_commavoid_beats_collective_at_paper_scale(self):
        """Fig. 7 shape: ~37x on 90 ranks / 2880 files."""
        cluster = cori_haswell(90)
        p, n = 90, 2880
        file_bytes = 700 * 2**20
        coll = model_collective_per_file(cluster, p, n, file_bytes)
        avoid = model_communication_avoiding(cluster, p, n, file_bytes)
        ratio = coll.total / avoid.total
        assert ratio > 10, f"expected >10x, got {ratio:.1f}x"
        assert ratio < 200, f"implausibly large ratio {ratio:.1f}x"

    def test_commavoid_beats_rca_read(self):
        """Fig. 7: communication-avoiding is even faster than reading the
        physically merged RCA (which burns client bandwidth on one file)."""
        cluster = cori_haswell(90)
        n, p = 2880, 90
        file_bytes = 700 * 2**20
        avoid = model_communication_avoiding(cluster, p, n, file_bytes)
        rca = model_rca_read(cluster, p, n * file_bytes)
        assert avoid.total < rca.total

    def test_collective_slower_than_rca(self):
        """Fig. 7: collective-per-file is even more time-consuming than
        the RCA read."""
        cluster = cori_haswell(90)
        n, p = 720, 90
        file_bytes = 700 * 2**20
        coll = model_collective_per_file(cluster, p, n, file_bytes)
        rca = model_rca_read(cluster, p, n * file_bytes)
        assert coll.total > rca.total

    def test_vca_create_much_faster_than_rca_create(self):
        """Fig. 6: ~70,000x construction gap at 2880 files."""
        cluster = cori_haswell()
        n = 2880
        t_vca = model_vca_create(cluster, n)
        t_rca = model_rca_create(cluster, n, 700 * 2**20)
        assert t_rca / t_vca > 1000

    def test_rca_create_magnitude(self):
        """Paper: creating the 2880-file RCA took ~9978 s."""
        cluster = cori_haswell()
        t = model_rca_create(cluster, 2880, 700 * 2**20)
        assert 1500 < t < 30000

    def test_vca_create_magnitude(self):
        """Paper: creating a VCA took <= 0.01 s... per a handful of files;
        metadata cost stays tiny (sub-minute even for 2880 files)."""
        cluster = cori_haswell()
        assert model_vca_create(cluster, 2880) < 60.0

    def test_search_magnitude(self):
        """Paper: searching 2880 files took <= 0.002 s."""
        cluster = cori_haswell()
        assert model_search(cluster, 2880) <= 0.002

    def test_broadcast_count_bookkeeping(self):
        cluster = cori_haswell(16)
        coll = model_collective_per_file(cluster, 16, 100, 1000)
        avoid = model_communication_avoiding(cluster, 16, 100, 1000)
        assert coll.n_broadcasts == 100
        assert avoid.n_broadcasts == 0
        # collective I/O reads each file with k aggregators (stripes)
        assert coll.n_requests == 100 * cluster.storage.default_stripe_count
        assert avoid.n_requests == 100


class TestDtypeAccounting:
    """Regression: the readers charged `size * 4` bytes regardless of the
    dataset dtype; float64 sources were billed at half their real I/O."""

    @pytest.fixture
    def f64(self, tmp_path):
        from repro.storage.dasfile import write_das_file
        from repro.storage.metadata import DASMetadata, timestamp_add_seconds

        rng = np.random.default_rng(3)
        stamp = "170620100545"
        paths, blocks = [], []
        for _ in range(4):
            block = rng.normal(size=(8, 40))
            path = str(tmp_path / f"d_{stamp}.h5")
            write_das_file(
                path,
                block,
                DASMetadata(sampling_frequency=2.0, timestamp=stamp, n_channels=8),
                channel_groups=False,
                dtype=np.float64,
            )
            paths.append(path)
            blocks.append(block)
            stamp = timestamp_add_seconds(stamp, 60)
        vca = create_vca(str(tmp_path / "v64.h5"), paths, dtype=np.float64)
        rca = create_rca(str(tmp_path / "r64.h5"), paths, dtype=np.float64)
        return {"vca": vca, "rca": rca, "n_files": 4, "shape": (8, 40)}

    def test_commavoid_charges_itemsize_bytes(self, f64):
        cluster = cori_haswell(2)

        def fn(comm):
            read_vca_communication_avoiding(comm, f64["vca"], cluster.storage)
            return comm.tracer.schedule()

        result = run_spmd(fn, 2, cluster=cluster, ranks_per_node=1)
        rows, cols = f64["shape"]
        for rank, schedule in enumerate(result.results):
            reads = [s for s in schedule if s[0] == "read"]
            expected = files_per_rank(f64["n_files"], 2, rank) * rows * cols * 8
            assert reads[0][1] == expected

    def test_collective_charges_itemsize_bytes(self, f64):
        cluster = cori_haswell(2)

        def fn(comm):
            read_vca_collective_per_file(comm, f64["vca"], cluster.storage)
            return comm.tracer.schedule()

        result = run_spmd(fn, 2, cluster=cluster, ranks_per_node=1)
        rows, cols = f64["shape"]
        file_bytes = rows * cols * 8
        for schedule in result.results:
            agg_reads = [s for s in schedule if s[0] == "read" and s[1] > 0]
            assert all(r[1] == file_bytes for r in agg_reads)

    def test_rca_direct_charges_itemsize_bytes(self, f64):
        cluster = cori_haswell(2)

        def fn(comm):
            read_rca_direct(comm, f64["rca"], cluster.storage)
            return comm.tracer.schedule()

        result = run_spmd(fn, 2, cluster=cluster, ranks_per_node=1)
        rows, cols = f64["shape"]
        total_cols = f64["n_files"] * cols
        for rank, schedule in enumerate(result.results):
            lo, hi = channel_block(rows, 2, rank)
            reads = [s for s in schedule if s[0] == "read"]
            assert reads[0][1] == (hi - lo) * total_cols * 8


class TestTraceEquivalence:
    """The executed schedules match what the model assumes."""

    def test_collective_schedule_matches_model(self, merged):
        cluster = cori_haswell(4)

        def fn(comm):
            read_vca_collective_per_file(comm, merged["vca"], cluster.storage)
            return comm.tracer.schedule()

        result = run_spmd(fn, 4, cluster=cluster, ranks_per_node=1)
        n_files = 6
        for rank, schedule in enumerate(result.results):
            bcasts = [s for s in schedule if s[0] == "bcast"]
            reads = [s for s in schedule if s[0] == "read" and s[1] > 0]
            assert len(bcasts) == n_files
            # aggregator rotation: rank r reads files r, r+p, ...
            assert len(reads) == files_per_rank(n_files, 4, rank)

    def test_commavoid_schedule_matches_model(self, merged):
        cluster = cori_haswell(4)

        def fn(comm):
            read_vca_communication_avoiding(comm, merged["vca"], cluster.storage)
            return comm.tracer.schedule()

        result = run_spmd(fn, 4, cluster=cluster, ranks_per_node=1)
        for rank, schedule in enumerate(result.results):
            assert sum(1 for s in schedule if s[0] == "alltoallv") == 1
            reads = [s for s in schedule if s[0] == "read"]
            assert len(reads) == 1  # one batched read charge
            expected_bytes = files_per_rank(6, 4, rank) * 16 * 120 * 4
            assert reads[0][1] == expected_bytes
