"""Tests for per-chunk CRC32 checksum sidecars: creation, verified reads
on every layout/path, corruption detection, and sidecar maintenance
under partial writes."""

import numpy as np
import pytest

from repro.errors import CorruptDataError, FormatError
from repro.faults.inject import FaultInjector
from repro.hdf5lite import BlockCache, File, FilePool, add_checksums, checksum_info
from repro.hdf5lite.checksum import (
    CRC_ATTR,
    DEFAULT_CHECKSUM_BLOCK,
    checksum_dataset,
    verify_dataset,
)
from repro.hdf5lite.inspect import verify


def _write(path, data, checksum=True, chunks=None, block=None):
    with File(str(path), "w") as f:
        f.create_dataset(
            "d", data=data, chunks=chunks, checksum=checksum,
            checksum_block=block,
        )
    return str(path)


class TestSidecarCreation:
    def test_contiguous_sidecar_written(self, tmp_path):
        data = np.arange(1000, dtype=np.float64).reshape(10, 100)
        path = _write(tmp_path / "c.h5", data, block=512)
        with File(path, "r") as f:
            ds = f.dataset("d")
            info = checksum_info(ds)
            assert info is not None and not info.chunked
            assert info.block_size == 512
            assert len(info.crcs) >= 1
            assert np.array_equal(ds.read(), data)

    def test_chunked_sidecar_written(self, tmp_path):
        data = np.arange(600, dtype=np.float32).reshape(6, 100)
        path = _write(tmp_path / "k.h5", data, chunks=(3, 40))
        with File(path, "r") as f:
            info = checksum_info(f.dataset("d"))
            assert info is not None and info.chunked
            assert len(info.chunk_crcs) == 2 * 3
            assert np.array_equal(f.dataset("d").read(), data)

    @pytest.mark.parametrize("codec", [None, "transpose-zlib", "delta-zlib:1"])
    def test_create_time_crcs_equal_a_read_back(self, tmp_path, codec):
        # create_dataset CRCs each payload as it appends it; the sidecar
        # must be the one checksum_dataset derives from the file's bytes
        data = np.random.default_rng(2).normal(size=(6, 100)).astype(np.float32)
        data[2:4] = 0.0
        path = str(tmp_path / "k.h5")
        with File(path, "w") as f:
            ds = f.create_dataset(
                "d", data=data, chunks=(4, 40), checksum=True, codec=codec
            )
            at_create = dict(ds.attrs.items())
            assert len(at_create[CRC_ATTR]) == 2 * 3
            f.flush()
            assert checksum_dataset(ds)
            assert dict(ds.attrs.items()) == at_create
            # a write into a chunk re-stores it: its CRC is refreshed to
            # what a read-back computes, the others are untouched
            ds[0:2, 0:10] = 5.0
            after_write = dict(ds.attrs.items())
            assert after_write[CRC_ATTR][0] != at_create[CRC_ATTR][0]
            assert after_write[CRC_ATTR][1:] == at_create[CRC_ATTR][1:]
            assert checksum_dataset(ds)
            assert dict(ds.attrs.items()) == after_write
        with File(path, "r") as f:
            assert verify(f) == []
            data[0:2, 0:10] = 5.0
            assert np.array_equal(f.dataset("d").read(), data)

    def test_no_checksum_by_default(self, tmp_path):
        path = _write(tmp_path / "n.h5", np.zeros(8), checksum=False)
        with File(path, "r") as f:
            assert checksum_info(f.dataset("d")) is None
            assert CRC_ATTR not in f.dataset("d").attrs

    def test_add_checksums_retrofits_a_file(self, tmp_path):
        path = _write(tmp_path / "r.h5", np.arange(64.0), checksum=False)
        with File(path, "r+") as f:
            added = add_checksums(f)
            assert added == 1
        with File(path, "r") as f:
            assert checksum_info(f.dataset("d")) is not None


class TestCorruptionDetection:
    def _flipped(self, tmp_path, **kwargs):
        data = np.random.default_rng(5).normal(size=(8, 256))
        path = _write(tmp_path / "f.h5", data, **kwargs)
        FaultInjector(seed=1).bit_flip(path)
        return path, data

    def test_uncached_read_raises_corrupt(self, tmp_path):
        path, _ = self._flipped(tmp_path)
        with pytest.raises(CorruptDataError) as err:
            with File(path, "r") as f:
                f.dataset("d").read()
        assert path in str(err.value)
        assert "crc32" in str(err.value).lower()

    def test_cached_read_raises_corrupt(self, tmp_path):
        path, _ = self._flipped(tmp_path)
        with FilePool(cache=BlockCache()) as pool:
            with pytest.raises(CorruptDataError):
                pool.acquire(path).dataset("d").read()

    def test_chunked_read_raises_corrupt(self, tmp_path):
        path, _ = self._flipped(tmp_path, chunks=(4, 64))
        with pytest.raises(CorruptDataError):
            with File(path, "r") as f:
                f.dataset("d").read()

    def test_verify_checksums_off_reads_silently(self, tmp_path):
        path, data = self._flipped(tmp_path)
        with File(path, "r", verify_checksums=False) as f:
            wrong = f.dataset("d").read()
        assert wrong.shape == data.shape
        assert not np.array_equal(wrong, data)

    def test_partial_read_of_clean_region_ok(self, tmp_path):
        # Corrupt only the tail block; reads confined to clean leading
        # blocks still verify and succeed.
        data = np.arange(1 << 16, dtype=np.float64)
        path = _write(tmp_path / "p.h5", data, block=4096)
        size = data.nbytes
        import os

        with open(path, "r+b") as fh:
            fh.seek(32 + size - 8)
            fh.write(b"\xff" * 8)
        with File(path, "r") as f:
            head = f.dataset("d")[: 4096 // 8]
            assert np.array_equal(head, data[: 4096 // 8])
            with pytest.raises(CorruptDataError):
                f.dataset("d").read()

    def test_verify_dataset_lists_without_raising(self, tmp_path):
        path, _ = self._flipped(tmp_path)
        with File(path, "r") as f:
            problems = verify_dataset(f.dataset("d"))
        assert problems
        offset, message = problems[0]
        assert isinstance(offset, int) and "crc" in message.lower()

    def test_inspect_verify_reports_crc_mismatch(self, tmp_path):
        path, _ = self._flipped(tmp_path)
        with File(path, "r", verify_checksums=False) as f:
            problems = verify(f)
        assert any("crc" in p.message.lower() for p in problems)

    def test_clean_file_verifies_clean(self, tmp_path):
        path = _write(tmp_path / "ok.h5", np.arange(512.0))
        with File(path, "r") as f:
            assert verify(f) == []


class TestSidecarMaintenance:
    def test_write_hyperslab_updates_crcs(self, tmp_path):
        data = np.zeros((4, 1024))
        path = _write(tmp_path / "w.h5", data, block=2048)
        with File(path, "r+") as f:
            ds = f.dataset("d")
            ds[1:3, 100:200] = 7.5
            expected = data.copy()
            expected[1:3, 100:200] = 7.5
        with File(path, "r") as f:
            assert np.array_equal(f.dataset("d").read(), expected)
            assert verify_dataset(f.dataset("d")) == []

    def test_default_block_size(self, tmp_path):
        path = _write(tmp_path / "b.h5", np.zeros(64))
        with File(path, "r") as f:
            assert checksum_info(f.dataset("d")).block_size == DEFAULT_CHECKSUM_BLOCK

    def test_bad_sidecar_is_format_error(self, tmp_path):
        from repro.hdf5lite.checksum import CRC_BLOCK_ATTR

        path = _write(tmp_path / "bad.h5", np.zeros(64))
        with File(path, "r+") as f:
            # Claim a chunked sidecar (block 0) without the key list.
            f.dataset("d").attrs[CRC_BLOCK_ATTR] = 0
        with File(path, "r") as f:
            with pytest.raises(FormatError):
                checksum_info(f.dataset("d"))

    def test_stale_sidecar_length_reported(self, tmp_path):
        path = _write(tmp_path / "stale.h5", np.zeros(64))
        with File(path, "r+") as f:
            f.dataset("d").attrs[CRC_ATTR] = [1, 2, 3, 4, 5]
        with File(path, "r") as f:
            problems = verify_dataset(f.dataset("d"))
        assert problems and "expected" in problems[0][1]

    def test_virtual_dataset_skips_checksum(self, tmp_path):
        # checksum_dataset declines virtual layouts (sources carry their
        # own sidecars); no sidecar is written.
        src = _write(tmp_path / "s.h5", np.ones((2, 8)))
        from repro.hdf5lite.dataset import VirtualSource

        vpath = str(tmp_path / "v.h5")
        with File(vpath, "w") as f:
            ds = f.create_dataset(
                "v",
                shape=(2, 8),
                dtype=np.float64,
                virtual_sources=[
                    VirtualSource(
                        file=src, dataset="/d", src_start=(0, 0),
                        dst_start=(0, 0), count=(2, 8),
                    )
                ],
            )
            assert checksum_dataset(ds) is False
        with File(vpath, "r") as f:
            assert checksum_info(f.dataset("v")) is None
