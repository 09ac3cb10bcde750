"""Tests for hdf5lite Dataset layouts (contiguous, chunked, virtual)."""

import numpy as np
import pytest

from repro.errors import FormatError, SelectionError
from repro.hdf5lite import CacheConfig, File, Hyperslab, VirtualSource
from repro.hdf5lite.inspect import verify
from repro.utils.iostats import IOStats


@pytest.fixture
def tmpfile(tmp_path):
    return str(tmp_path / "ds.h5")


class TestContiguous:
    def test_roundtrip_2d(self, tmpfile):
        data = np.arange(6 * 8, dtype=np.float32).reshape(6, 8)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data)
        with File(tmpfile, "r") as f:
            np.testing.assert_array_equal(f.dataset("d").read(), data)

    @pytest.mark.parametrize("dtype", ["<i2", "<i4", "<u1", "<f4", "<f8", "<c8"])
    def test_dtypes(self, tmpfile, dtype):
        data = np.arange(10).astype(dtype)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data)
        with File(tmpfile, "r") as f:
            ds = f.dataset("d")
            assert ds.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(ds.read(), data)

    def test_unsupported_dtype_rejected(self, tmpfile):
        with File(tmpfile, "w") as f:
            with pytest.raises(FormatError):
                f.create_dataset("d", data=np.array(["a", "b"]))

    @pytest.mark.parametrize(
        "sel",
        [
            np.s_[2:5],
            np.s_[:, 3],
            np.s_[1, 1:7:2],
            np.s_[...],
            np.s_[::2, ::3],
            np.s_[4],
        ],
    )
    def test_getitem_matches_numpy(self, tmpfile, sel):
        data = np.arange(6 * 8, dtype=np.float64).reshape(6, 8)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data)
        with File(tmpfile, "r") as f:
            np.testing.assert_array_equal(f.dataset("d")[sel], data[sel])

    def test_allocate_then_write(self, tmpfile):
        with File(tmpfile, "w") as f:
            ds = f.create_dataset("d", shape=(4, 4), dtype=np.float32)
            np.testing.assert_array_equal(ds.read(), np.zeros((4, 4)))
            ds[1:3, 1:3] = [[1, 2], [3, 4]]
        with File(tmpfile, "r") as f:
            out = f.dataset("d").read()
        expected = np.zeros((4, 4), dtype=np.float32)
        expected[1:3, 1:3] = [[1, 2], [3, 4]]
        np.testing.assert_array_equal(out, expected)

    def test_setitem_broadcast_scalar(self, tmpfile):
        with File(tmpfile, "w") as f:
            ds = f.create_dataset("d", shape=(3, 3), dtype=np.float64)
            ds[1] = 7.0
            np.testing.assert_array_equal(ds[1], np.full(3, 7.0))

    def test_write_shape_mismatch(self, tmpfile):
        with File(tmpfile, "w") as f:
            ds = f.create_dataset("d", shape=(4,), dtype=np.float32)
            with pytest.raises(SelectionError):
                ds.write_hyperslab(
                    Hyperslab((0,), (4,), (1,)), np.zeros(3, dtype=np.float32)
                )

    def test_shape_contradiction_rejected(self, tmpfile):
        with File(tmpfile, "w") as f:
            with pytest.raises(FormatError):
                f.create_dataset("d", data=np.zeros(4), shape=(5,))

    def test_properties(self, tmpfile):
        with File(tmpfile, "w") as f:
            ds = f.create_dataset("d", data=np.zeros((3, 5), dtype=np.float32))
            assert ds.shape == (3, 5)
            assert ds.ndim == 2
            assert ds.size == 15
            assert ds.nbytes == 60
            assert len(ds) == 3
            assert ds.chunks is None
            assert ds.layout == "contiguous"

    def test_full_read_is_one_request(self, tmpfile):
        data = np.arange(100, dtype=np.float64).reshape(10, 10)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data)
        stats = IOStats()
        with File(tmpfile, "r", iostats=stats) as f:
            reads_before = stats.reads
            f.dataset("d").read()
            assert stats.reads - reads_before == 1

    def test_column_read_is_one_request_per_row(self, tmpfile):
        # 8 KiB rows: the hole between two rows' column elements is wider
        # than the coalescing gap, so every row is its own request.
        data = np.arange(10 * 1024, dtype=np.float64).reshape(10, 1024)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data)
        stats = IOStats()
        with File(tmpfile, "r", iostats=stats) as f:
            reads_before = stats.reads
            np.testing.assert_array_equal(f.dataset("d")[:, 4], data[:, 4])
            assert stats.reads - reads_before == 10

    def test_column_read_of_narrow_rows_is_one_request(self, tmpfile):
        # 80-byte rows: the holes fit the gap, one bounding span is fetched.
        data = np.arange(100, dtype=np.float64).reshape(10, 10)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data)
        stats = IOStats()
        with File(tmpfile, "r", iostats=stats) as f:
            reads_before, bytes_before = stats.reads, stats.bytes_read
            np.testing.assert_array_equal(f.dataset("d")[:, 4], data[:, 4])
            assert stats.reads - reads_before == 1
            assert stats.bytes_read - bytes_before == (9 * 10 + 1) * 8

    def test_strided_read_is_at_most_one_request_per_row(self, tmpfile):
        # [:, ::8] of float32 leaves 28-byte holes: every row is fetched as
        # one bounding span (adjacent rows merge when the row hole fits
        # too), never element by element; warm, nothing reaches the backend.
        rows, cols = 8, 4096
        data = np.arange(rows * cols, dtype=np.float32).reshape(rows, cols)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data)
        stats = IOStats()
        with File(tmpfile, "r", iostats=stats) as f:
            ds = f.dataset("d")
            before = stats.reads
            np.testing.assert_array_equal(ds[:, ::8], data[:, ::8])
            assert stats.reads - before <= rows
            # half rows: the 8 KiB hole between rows is not bridged
            before, bytes_before = stats.reads, stats.bytes_read
            np.testing.assert_array_equal(ds[:, : cols // 2 : 8], data[:, :2048:8])
            assert stats.reads - before == rows
            assert stats.bytes_read - bytes_before == rows * (2041 * 4)
        warm = IOStats()
        with File(tmpfile, "r", iostats=warm, cache=CacheConfig()) as f:
            ds = f.dataset("d")
            ds[:, ::8]
            before = warm.reads
            np.testing.assert_array_equal(ds[:, ::8], data[:, ::8])
            assert warm.reads - before == 0

    def test_array_protocol(self, tmpfile):
        data = np.arange(4.0)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data)
        with File(tmpfile, "r") as f:
            np.testing.assert_array_equal(np.asarray(f.dataset("d")), data)


class TestChunked:
    def test_roundtrip(self, tmpfile):
        data = np.arange(20 * 30, dtype=np.float32).reshape(20, 30)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data, chunks=(8, 8))
        with File(tmpfile, "r") as f:
            ds = f.dataset("d")
            assert ds.layout == "chunked"
            assert ds.chunks == (8, 8)
            np.testing.assert_array_equal(ds.read(), data)

    @pytest.mark.parametrize(
        "sel",
        [np.s_[3:17, 5:25], np.s_[0], np.s_[:, 29], np.s_[::3, ::7], np.s_[19, 29]],
    )
    def test_partial_reads(self, tmpfile, sel):
        data = np.arange(20 * 30, dtype=np.int32).reshape(20, 30)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data, chunks=(7, 9))
        with File(tmpfile, "r") as f:
            np.testing.assert_array_equal(f.dataset("d")[sel], data[sel])

    def test_chunks_require_data(self, tmpfile):
        with File(tmpfile, "w") as f:
            with pytest.raises(FormatError):
                f.create_dataset("d", shape=(4, 4), chunks=(2, 2))

    def test_bad_chunk_rank(self, tmpfile):
        with File(tmpfile, "w") as f:
            with pytest.raises(FormatError):
                f.create_dataset("d", data=np.zeros((4, 4)), chunks=(2,))

    def test_chunked_refuses_writes(self, tmpfile):
        # a chunk is stored once, at creation: a write would re-store it
        with File(tmpfile, "w") as f:
            ds = f.create_dataset("d", data=np.zeros((4, 4)), chunks=(2, 2))
            with pytest.raises(FormatError, match="/d: writes are only supported"):
                ds[0] = 1.0
            with pytest.raises(FormatError, match="not chunked"):
                ds[1:3, ::2] = 2.0
        with File(tmpfile, "r") as f:
            np.testing.assert_array_equal(f.dataset("d").read(), np.zeros((4, 4)))

    def test_read_touches_only_needed_chunks(self, tmpfile):
        data = np.arange(16 * 16, dtype=np.float64).reshape(16, 16)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data, chunks=(4, 4))
        stats = IOStats()
        with File(tmpfile, "r", iostats=stats) as f:
            before = stats.reads
            f.dataset("d")[0:4, 0:4]  # exactly one chunk, contiguous inside
            assert stats.reads - before == 1

    def test_1d_chunked(self, tmpfile):
        data = np.arange(100, dtype=np.float32)
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data, chunks=(7,))
        with File(tmpfile, "r") as f:
            np.testing.assert_array_equal(f.dataset("d")[13:64], data[13:64])


class TestScalar:
    """A 0-d dataset keeps shape ``()`` and reads and writes like numpy's."""

    @pytest.mark.parametrize("checksum", [False, True])
    @pytest.mark.parametrize(
        "chunks, codec",
        [(None, None), ((), None), ((), "transpose-zlib"), ((), "delta-zlib")],
        ids=["contiguous", "chunked", "transpose-zlib", "delta-zlib"],
    )
    def test_roundtrip(self, tmpfile, checksum, chunks, codec):
        writable = chunks is None and not checksum
        with File(tmpfile, "w") as f:
            ds = f.create_dataset(
                "s", data=np.float64(2.5), chunks=chunks, codec=codec, checksum=checksum
            )
            assert ds.shape == ()
            assert ds[()] == 2.5
            if writable:
                ds[()] = 3.0
            else:  # a chunk or a checksummed block is written once
                with pytest.raises(FormatError, match="/s: "):
                    ds[()] = 3.0
            assert ds.read().shape == ()
            assert ds.read() == (3.0 if writable else 2.5)
        with File(tmpfile, "r") as f:
            ds = f.dataset("s")
            assert ds.shape == ()
            assert ds[...] == (3.0 if writable else 2.5)
            assert verify(f) == []

    def test_raw_chunk_lands_in_a_0d_destination(self, tmpfile):
        # a raw chunk read straight into place must get a view of a 0-d
        # destination, not a scalar copy that drops the samples
        with File(tmpfile, "w") as f:
            f.create_dataset("s", data=np.float64(2.5), chunks=())
        with File(tmpfile, "r") as f:
            ds = f.dataset("s")
            out = np.full((), 9.0)
            ds.read_direct(Hyperslab((), (), ()), out)
            assert out == 2.5

    @pytest.mark.parametrize("checksum", [False, True])
    def test_created_by_shape(self, tmpfile, checksum):
        with File(tmpfile, "w") as f:
            ds = f.create_dataset("s", shape=(), dtype=np.int32, checksum=checksum)
            assert ds.read() == 0
            if checksum:
                with pytest.raises(FormatError, match="/s: a checksummed dataset"):
                    ds[...] = 7
            else:
                ds[...] = 7
        with File(tmpfile, "r") as f:
            value = f.dataset("s")[()]
            assert value.shape == () and value.dtype == np.int32
            assert value == (0 if checksum else 7)
            assert verify(f) == []
            with pytest.raises(TypeError):
                len(f.dataset("s"))


class TestVirtual:
    def _write_sources(self, tmp_path, n_files=3, rows=4, cols=5):
        paths = []
        blocks = []
        for i in range(n_files):
            path = str(tmp_path / f"src{i}.h5")
            block = np.full((rows, cols), float(i), dtype=np.float32) + np.arange(
                rows * cols, dtype=np.float32
            ).reshape(rows, cols) / 100.0
            with File(path, "w") as f:
                f.create_dataset("data", data=block)
            paths.append(path)
            blocks.append(block)
        return paths, blocks

    def test_concatenation_along_time(self, tmp_path):
        paths, blocks = self._write_sources(tmp_path)
        rows, cols = blocks[0].shape
        vpath = str(tmp_path / "vca.h5")
        sources = [
            VirtualSource(
                file=paths[i],
                dataset="/data",
                src_start=(0, 0),
                dst_start=(0, i * cols),
                count=(rows, cols),
            )
            for i in range(len(paths))
        ]
        with File(vpath, "w") as f:
            f.create_dataset(
                "merged",
                shape=(rows, cols * len(paths)),
                dtype=np.float32,
                virtual_sources=sources,
            )
        expected = np.concatenate(blocks, axis=1)
        with File(vpath, "r") as f:
            ds = f.dataset("merged")
            assert ds.layout == "virtual"
            np.testing.assert_array_equal(ds.read(), expected)
            # Partial read crossing a file boundary:
            np.testing.assert_array_equal(
                ds[1:3, cols - 2 : cols + 2], expected[1:3, cols - 2 : cols + 2]
            )
            # Strided read:
            np.testing.assert_array_equal(ds[::2, ::3], expected[::2, ::3])

    def test_relative_source_paths(self, tmp_path):
        paths, blocks = self._write_sources(tmp_path, n_files=2)
        rows, cols = blocks[0].shape
        vpath = str(tmp_path / "vca.h5")
        sources = [
            VirtualSource(
                file=f"src{i}.h5",  # relative to the VCA file's directory
                dataset="/data",
                src_start=(0, 0),
                dst_start=(0, i * cols),
                count=(rows, cols),
            )
            for i in range(2)
        ]
        with File(vpath, "w") as f:
            f.create_dataset(
                "merged", shape=(rows, 2 * cols), dtype=np.float32, virtual_sources=sources
            )
        with File(vpath, "r") as f:
            np.testing.assert_array_equal(
                f.dataset("merged").read(), np.concatenate(blocks, axis=1)
            )

    def test_gap_filled_with_fill_value(self, tmp_path):
        paths, blocks = self._write_sources(tmp_path, n_files=1)
        rows, cols = blocks[0].shape
        vpath = str(tmp_path / "v.h5")
        with File(vpath, "w") as f:
            f.create_dataset(
                "v",
                shape=(rows, 2 * cols),
                dtype=np.float32,
                virtual_sources=[
                    VirtualSource(paths[0], "/data", (0, 0), (0, 0), (rows, cols))
                ],
                fill=-1,
            )
        with File(vpath, "r") as f:
            out = f.dataset("v").read()
        np.testing.assert_array_equal(out[:, :cols], blocks[0])
        np.testing.assert_array_equal(out[:, cols:], np.full((rows, cols), -1.0))

    def test_source_shape_validation(self, tmp_path):
        with File(str(tmp_path / "v.h5"), "w") as f:
            with pytest.raises(FormatError):
                f.create_dataset(
                    "v",
                    shape=(4, 4),
                    virtual_sources=[
                        VirtualSource("x.h5", "/d", (0, 0), (0, 2), (4, 4))
                    ],
                )

    def test_virtual_requires_shape(self, tmp_path):
        with File(str(tmp_path / "v.h5"), "w") as f:
            with pytest.raises(FormatError):
                f.create_dataset("v", virtual_sources=[])

    def test_virtual_rejects_writes(self, tmp_path):
        paths, blocks = self._write_sources(tmp_path, n_files=1)
        rows, cols = blocks[0].shape
        with File(str(tmp_path / "v.h5"), "w") as f:
            ds = f.create_dataset(
                "v",
                shape=(rows, cols),
                dtype=np.float32,
                virtual_sources=[
                    VirtualSource(paths[0], "/data", (0, 0), (0, 0), (rows, cols))
                ],
            )
            with pytest.raises(FormatError):
                ds[0] = 1.0

    def test_source_opens_counted(self, tmp_path):
        paths, blocks = self._write_sources(tmp_path, n_files=3)
        rows, cols = blocks[0].shape
        vpath = str(tmp_path / "v.h5")
        sources = [
            VirtualSource(paths[i], "/data", (0, 0), (0, i * cols), (rows, cols))
            for i in range(3)
        ]
        with File(vpath, "w") as f:
            f.create_dataset(
                "v", shape=(rows, 3 * cols), dtype=np.float32, virtual_sources=sources
            )
        stats = IOStats()
        with File(vpath, "r", iostats=stats) as f:
            opens_before = stats.opens
            f.dataset("v").read()
            # one open per source file
            assert stats.opens - opens_before == 3
