"""Tests for per-chunk CRC32 checksum sidecars: creation, verified reads
on every layout/path, corruption detection, and the refusal of any write
that would re-checksum stored bytes."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, CorruptDataError, FormatError, ReproError
from repro.faults.inject import FaultInjector
from repro.hdf5lite import (
    BlockCache,
    CacheConfig,
    File,
    FilePool,
    VirtualSource,
    checksum_info,
    normalize_selection,
)
from repro.hdf5lite.checksum import (
    CRC_ATTR,
    DEFAULT_CHECKSUM_BLOCK,
    verify_dataset,
)
from repro.hdf5lite.inspect import verify
from repro.utils.iostats import IOStats
from tests.reference.hdf5lite import read_back_sidecar


def _write(path, data, checksum=True, chunks=None, block=None):
    with File(str(path), "w") as f:
        f.create_dataset(
            "d", data=data, chunks=chunks, checksum=checksum,
            checksum_block=block,
        )
    return str(path)


def _write_tampered(path, mutate, data, **kwargs):
    """Create ``d`` and tamper with its stored metadata before the file is
    published (a written file is never changed): ``mutate(ds)`` may
    assign attributes or reach into the dataset's raw size maps."""
    with File(str(path), "w") as f:
        mutate(f.create_dataset("d", data=data, **kwargs))
    return str(path)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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
        # must be the one a read-back derives from the file's bytes
        data = np.random.default_rng(2).normal(size=(6, 100)).astype(np.float32)
        data[2:4] = 0.0
        path = str(tmp_path / "k.h5")
        with File(path, "w") as f:
            ds = f.create_dataset(
                "d", data=data, chunks=(4, 40), checksum=True, codec=codec
            )
            at_create = dict(ds.attrs.items())
            assert len(at_create[CRC_ATTR]) == 2 * 3
            read_back = read_back_sidecar(ds)
            assert {key: at_create[key] for key in read_back} == read_back
            # a write into a chunk would re-store it: refused, CRCs untouched
            with pytest.raises(FormatError, match="/d: writes are only supported"):
                ds[0:2, 0:10] = 5.0
            assert dict(ds.attrs.items()) == at_create
        with File(path, "r") as f:
            assert verify(f) == []
            assert np.array_equal(f.dataset("d").read(), data)

    def test_no_checksum_by_default(self, tmp_path):
        path = _write(tmp_path / "n.h5", np.zeros(8), checksum=False)
        with File(path, "r") as f:
            assert checksum_info(f.dataset("d")) is None
            assert CRC_ATTR not in f.dataset("d").attrs


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


class TestWritesAreRefused:
    """A stored unit and its CRC are written once, at creation: a write
    into a dataset with a sidecar, or into a chunked one, raises before
    any byte is written."""

    def test_a_write_beside_a_flipped_byte_does_not_launder_it(self, tmp_path):
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        path = _write(tmp_path / "l.h5", data, block=4096)
        _flip(path, 32 + 100)  # block 0, row 1
        with File(path, "r") as f:
            with pytest.raises(CorruptDataError):
                f.dataset("d").read()
        before = _digest(path)
        # re-CRCing the flipped byte's block would bless the flip: a
        # written file is never opened for writing again
        for mode in ("r+", "a"):
            with pytest.raises(ConfigError, match="unsupported file mode"):
                File(path, mode)
        assert _digest(path) == before
        with File(path, "r") as f:
            with pytest.raises(CorruptDataError):
                f.dataset("d").read()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block": 2048},
            {"chunks": (2, 256)},
            {"chunks": (2, 256), "checksum": False},
        ],
        ids=["contiguous-crc", "chunked-crc", "chunked"],
    )
    @pytest.mark.parametrize("verify_checksums", [True, False])
    def test_refused_write_leaves_the_file_unchanged(
        self, tmp_path, kwargs, verify_checksums
    ):
        data = np.zeros((4, 1024))
        clean = _digest(_write(tmp_path / "clean.h5", data, **kwargs))
        path = str(tmp_path / "w.h5")
        stats = IOStats()
        with File(path, "w", iostats=stats, verify_checksums=verify_checksums) as f:
            ds = f.create_dataset(
                "d", data=data, chunks=kwargs.get("chunks"),
                checksum=kwargs.get("checksum", True),
                checksum_block=kwargs.get("block"),
            )
            before = stats.writes
            with pytest.raises(FormatError, match="/d: "):
                ds[1:3, 100:200] = 7.5
            with pytest.raises(FormatError, match="/d: "):
                ds.write_hyperslab(
                    normalize_selection(np.s_[0], ds.shape)[0], np.ones((1, 1024))
                )
            assert stats.writes == before
        assert _digest(path) == clean
        with File(path, "r") as f:
            assert np.array_equal(f.dataset("d").read(), data)
            assert verify_dataset(f.dataset("d")) == []


class TestSidecarMaintenance:

    def test_default_block_size(self, tmp_path):
        path = _write(tmp_path / "b.h5", np.zeros(64))
        with File(path, "r") as f:
            assert checksum_info(f.dataset("d")).block_size == DEFAULT_CHECKSUM_BLOCK

    def test_bad_sidecar_is_format_error(self, tmp_path):
        from repro.hdf5lite.checksum import CRC_BLOCK_ATTR

        # Claim a chunked sidecar (block 0) without the key list.
        path = _write_tampered(
            tmp_path / "bad.h5", lambda ds: ds.attrs.__setitem__(CRC_BLOCK_ATTR, 0),
            np.zeros(64), checksum=True,
        )
        with File(path, "r") as f:
            with pytest.raises(FormatError):
                checksum_info(f.dataset("d"))

    def test_stale_sidecar_length_reported(self, tmp_path):
        path = _write_tampered(
            tmp_path / "stale.h5",
            lambda ds: ds.attrs.__setitem__(CRC_ATTR, [1, 2, 3, 4, 5]),
            np.zeros(64), checksum=True,
        )
        with File(path, "r") as f:
            problems = verify_dataset(f.dataset("d"))
        assert problems and "expected" in problems[0][1]

    def test_virtual_dataset_skips_checksum(self, tmp_path):
        # a virtual dataset stores no local bytes (its sources carry their
        # own sidecars): checksum=True writes no sidecar.
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
                checksum=True,
            )
            assert checksum_info(ds) is None
        with File(vpath, "r") as f:
            assert checksum_info(f.dataset("v")) is None


# ---------------------------------------------------------------------------
# request identity: what a read costs, per layout, at default unit sizes
# ---------------------------------------------------------------------------

IO_SHAPE = (64, 8192)  # 2 MiB of float32: two default pages / checksum blocks
IO_MINUTE = (64, 6144)  # 1.5 MiB per source file of the virtual array
IO_LAYOUTS = {
    "contiguous": {},
    "contiguous-crc": {"checksum": True},
    "chunked": {"chunks": (16, 2048)},
    "chunked-crc": {"chunks": (16, 2048), "checksum": True},
    "codec-crc": {"chunks": (16, 2048), "codec": "transpose-zlib", "checksum": True},
}
IO_SELECTIONS = {
    "full": (slice(None), slice(None)),
    "block": (slice(8, 40), slice(1000, 5000)),
    "strided": (slice(None, None, 3), slice(5, None, 7)),
}
IO_COUNTERS = (
    "opens", "seeks", "reads", "bytes_read",
    "cache_hits", "cache_misses", "cache_evictions",
)
# (cold, warm) IO_COUNTERS deltas of one ``read_direct``, as measured on the
# tree before the stored-unit map (PR 22): the refactor moves no request.
# ``None`` stands for "the encoded bytes of the chunks read" (zlib's exact
# output is not this repo's to pin).
PARENT_IO = {
    ("contiguous", "uncached", "block"): ((0, 32, 32, 512000, 0, 0, 0), (0, 32, 32, 512000, 0, 0, 0)),
    ("contiguous", "uncached", "full"): ((0, 1, 1, 2097152, 0, 0, 0), (0, 1, 1, 2097152, 0, 0, 0)),
    ("contiguous", "uncached", "strided"): ((0, 22, 22, 720192, 0, 0, 0), (0, 22, 22, 720192, 0, 0, 0)),
    ("contiguous", "cached", "block"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous", "cached", "full"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous", "cached", "strided"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous", "pooled", "block"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous", "pooled", "full"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous", "pooled", "strided"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous-crc", "uncached", "block"): ((0, 1, 2, 2097152, 0, 0, 0), (0, 1, 2, 2097152, 0, 0, 0)),
    ("contiguous-crc", "uncached", "full"): ((0, 1, 2, 2097152, 0, 0, 0), (0, 1, 2, 2097152, 0, 0, 0)),
    ("contiguous-crc", "uncached", "strided"): ((0, 1, 2, 2097152, 0, 0, 0), (0, 1, 2, 2097152, 0, 0, 0)),
    ("contiguous-crc", "cached", "block"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous-crc", "cached", "full"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous-crc", "cached", "strided"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous-crc", "pooled", "block"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous-crc", "pooled", "full"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("contiguous-crc", "pooled", "strided"): ((0, 1, 2, 2097152, 0, 2, 0), (0, 0, 0, 0, 2, 0, 0)),
    ("chunked", "uncached", "block"): ((0, 36, 38, 628000, 0, 0, 0), (0, 36, 38, 628000, 0, 0, 0)),
    ("chunked", "uncached", "full"): ((0, 1, 16, 2097152, 0, 0, 0), (0, 1, 16, 2097152, 0, 0, 0)),
    ("chunked", "uncached", "strided"): ((0, 88, 88, 718608, 0, 0, 0), (0, 88, 88, 718608, 0, 0, 0)),
    ("chunked", "cached", "block"): ((0, 3, 9, 1179648, 0, 9, 0), (0, 0, 0, 0, 9, 0, 0)),
    ("chunked", "cached", "full"): ((0, 1, 16, 2097152, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("chunked", "cached", "strided"): ((0, 1, 16, 2097152, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("chunked", "pooled", "block"): ((0, 3, 9, 1179648, 0, 9, 0), (0, 0, 0, 0, 9, 0, 0)),
    ("chunked", "pooled", "full"): ((0, 1, 16, 2097152, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("chunked", "pooled", "strided"): ((0, 1, 16, 2097152, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("chunked-crc", "uncached", "block"): ((0, 3, 9, 1179648, 0, 0, 0), (0, 3, 9, 1179648, 0, 0, 0)),
    ("chunked-crc", "uncached", "full"): ((0, 1, 16, 2097152, 0, 0, 0), (0, 1, 16, 2097152, 0, 0, 0)),
    ("chunked-crc", "uncached", "strided"): ((0, 1, 16, 2097152, 0, 0, 0), (0, 1, 16, 2097152, 0, 0, 0)),
    ("chunked-crc", "cached", "block"): ((0, 3, 9, 1179648, 0, 9, 0), (0, 0, 0, 0, 9, 0, 0)),
    ("chunked-crc", "cached", "full"): ((0, 1, 16, 2097152, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("chunked-crc", "cached", "strided"): ((0, 1, 16, 2097152, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("chunked-crc", "pooled", "block"): ((0, 3, 9, 1179648, 0, 9, 0), (0, 0, 0, 0, 9, 0, 0)),
    ("chunked-crc", "pooled", "full"): ((0, 1, 16, 2097152, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("chunked-crc", "pooled", "strided"): ((0, 1, 16, 2097152, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("codec-crc", "uncached", "block"): ((0, 3, 9, None, 0, 0, 0), (0, 3, 9, None, 0, 0, 0)),
    ("codec-crc", "uncached", "full"): ((0, 1, 16, None, 0, 0, 0), (0, 1, 16, None, 0, 0, 0)),
    ("codec-crc", "uncached", "strided"): ((0, 1, 16, None, 0, 0, 0), (0, 1, 16, None, 0, 0, 0)),
    ("codec-crc", "cached", "block"): ((0, 3, 9, None, 0, 9, 0), (0, 0, 0, 0, 9, 0, 0)),
    ("codec-crc", "cached", "full"): ((0, 1, 16, None, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("codec-crc", "cached", "strided"): ((0, 1, 16, None, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("codec-crc", "pooled", "block"): ((0, 3, 9, None, 0, 9, 0), (0, 0, 0, 0, 9, 0, 0)),
    ("codec-crc", "pooled", "full"): ((0, 1, 16, None, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("codec-crc", "pooled", "strided"): ((0, 1, 16, None, 0, 16, 0), (0, 0, 0, 0, 16, 0, 0)),
    ("vca", "uncached", "block"): ((1, 33, 34, 512152, 0, 0, 0), (0, 32, 32, 512000, 0, 0, 0)),
    ("vca", "uncached", "full"): ((3, 6, 9, 4719048, 0, 0, 0), (0, 3, 3, 4718592, 0, 0, 0)),
    ("vca", "uncached", "strided"): ((3, 69, 72, 1620800, 0, 0, 0), (0, 66, 66, 1620344, 0, 0, 0)),
    ("vca", "cached", "block"): ((1, 2, 3, 1048728, 0, 1, 0), (0, 0, 0, 0, 1, 0, 0)),
    ("vca", "cached", "full"): ((3, 6, 12, 4719048, 0, 6, 0), (0, 0, 0, 0, 6, 0, 0)),
    ("vca", "cached", "strided"): ((3, 6, 12, 4719048, 0, 6, 0), (0, 0, 0, 0, 6, 0, 0)),
    ("vca", "pooled", "block"): ((1, 2, 3, 1048728, 0, 1, 0), (0, 0, 0, 0, 1, 0, 0)),
    ("vca", "pooled", "full"): ((3, 6, 12, 4719048, 0, 6, 0), (0, 0, 0, 0, 6, 0, 0)),
    ("vca", "pooled", "strided"): ((3, 6, 12, 4719048, 0, 6, 0), (0, 0, 0, 0, 6, 0, 0)),
}


@pytest.fixture(scope="module")
def io_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("io")
    rng = np.random.default_rng(11)
    for name, kwargs in IO_LAYOUTS.items():
        with File(str(root / f"{name}.h5"), "w") as f:
            f.create_dataset(
                "d", data=rng.normal(size=IO_SHAPE).astype(np.float32), **kwargs
            )
    sources = []
    for i in range(3):
        with File(str(root / f"minute{i}.h5"), "w") as f:
            f.create_dataset(
                "d", data=rng.normal(size=IO_MINUTE).astype(np.float32)
            )
        sources.append(
            VirtualSource(
                f"minute{i}.h5", "/d", (0, 0), (0, i * IO_MINUTE[1]), IO_MINUTE
            )
        )
    with File(str(root / "vca.h5"), "w") as f:
        f.create_dataset(
            "d", shape=(64, 3 * IO_MINUTE[1]), dtype=np.float32,
            virtual_sources=sources,
        )
    return root


def _io_profile(root, layout, how, selection):
    """IO_COUNTERS deltas of a cold and of a warm ``read_direct``, and the
    encoded bytes a read of that selection has to fetch (codec layout)."""
    stats = IOStats()
    path = str(root / f"{layout}.h5")
    pool = None
    if how == "pooled":
        pool = FilePool(cache=BlockCache())
        f = File(path, "r", iostats=stats, cache=pool.cache, pool=pool)
    else:
        f = File(path, "r", iostats=stats, cache=CacheConfig() if how == "cached" else None)
    try:
        ds = f.dataset("d")
        hs, _ = normalize_selection(IO_SELECTIONS[selection], ds.shape)
        deltas = []
        for _temperature in ("cold", "warm"):
            before = stats.full_snapshot()
            ds.read_direct(hs, np.empty(hs.count, dtype=np.float32))
            spent = stats.delta(before)
            deltas.append(tuple(spent[name] for name in IO_COUNTERS))
        encoded = None
        if layout == "codec-crc":
            rows = {r // 16 for r in hs.indices(0)}
            cols = {c // 2048 for c in hs.indices(1)}
            encoded = sum(
                int(ds._meta["chunk_enc"][f"{r},{c}"]) for r in rows for c in cols
            )
    finally:
        f.close()
        if pool is not None:
            pool.close_all()
    return deltas, encoded


@pytest.mark.parametrize("selection", sorted(IO_SELECTIONS))
@pytest.mark.parametrize("how", ["uncached", "cached", "pooled"])
@pytest.mark.parametrize("layout", [*IO_LAYOUTS, "vca"])
def test_reads_cost_what_they_cost_before_the_unit_map(io_files, layout, how, selection):
    (cold, warm), encoded = _io_profile(io_files, layout, how, selection)
    expected = PARENT_IO[layout, how, selection]
    bytes_at = IO_COUNTERS.index("bytes_read")
    for got, pinned in zip((cold, warm), expected):
        pinned = tuple(
            (encoded if got[bytes_at] else 0) if n is None else n for n in pinned
        )
        assert got == pinned


# ---------------------------------------------------------------------------
# sidecar coverage: a unit the sidecar does not cover is refused, not read
# ---------------------------------------------------------------------------


def _flip(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0x10]))


class TestSidecarCoverage:
    DATA = np.random.default_rng(23).normal(size=(64, 4096)).astype(np.float32)

    def test_truncated_block_list_is_refused_not_read_unverified(self, tmp_path):
        path = _write_tampered(
            tmp_path / "c.h5",
            lambda ds: ds.attrs.__setitem__(CRC_ATTR, ds.attrs[CRC_ATTR][:10]),
            self.DATA, checksum=True, checksum_block=4096,
        )
        _flip(path, 32 + 200 * 4096 + 17)  # block 200: past the CRCs that remain
        with File(path, "r") as f:
            with pytest.raises(FormatError, match=r"/d: checksum sidecar has 10 CRCs, expected 256"):
                f.dataset("d").read()
            with pytest.raises(FormatError, match="/d"):
                f.dataset("d")[0, :8]  # nowhere near the flipped byte either
            assert any("10 CRCs, expected 256" in p.message for p in verify(f))
        with FilePool(cache=BlockCache()) as pool:
            with pytest.raises(FormatError, match="expected 256"):
                pool.acquire(path).dataset("d").read()
        # the way into a file whose sidecar is damaged: no verification
        with File(path, "r", verify_checksums=False) as f:
            got = f.dataset("d").read()
        assert (got != self.DATA).sum() == 1

    def test_chunk_missing_from_the_sidecar_is_refused_and_reported(self, tmp_path):
        def drop(ds, key="0,1"):
            at = ds.attrs["repro:crc32 keys"].index(key)
            for name in (CRC_ATTR, "repro:crc32 keys"):
                ds.attrs[name] = [v for i, v in enumerate(ds.attrs[name]) if i != at]
            # no writer re-stores the chunk under a fresh CRC
            with pytest.raises(FormatError, match="/d: writes are only supported"):
                ds[0:32, 1024:2048] = self.DATA[0:32, 1024:2048]

        path = _write_tampered(
            tmp_path / "k.h5", drop, self.DATA, chunks=(32, 1024), checksum=True
        )
        with File(path, "r") as f:
            victim = int(f.dataset("d")._meta["chunk_index"]["0,1"]) + 40
        _flip(path, victim)
        with File(path, "r") as f:
            with pytest.raises(FormatError, match=r"/d: checksum sidecar covers 7 chunks"):
                f.dataset("d").read()
            problems = verify(f)
            assert [p.message for p in problems] == [
                "checksum sidecar covers 7 chunks, the chunk index holds 8"
            ]
        with File(path, "r", verify_checksums=False) as f:
            assert (f.dataset("d").read() != self.DATA).sum() == 1

    def test_one_missing_encoded_size_is_one_problem(self, tmp_path):
        path = _write_tampered(
            tmp_path / "z.h5", lambda ds: ds._meta["chunk_enc"].pop("1,2"),
            self.DATA, chunks=(32, 1024), codec="transpose-zlib", checksum=True,
        )
        with File(path, "r") as f:
            assert [p.message for p in verify(f)] == [
                "chunk 1,2 missing from the chunk_enc size map"
            ]
            with pytest.raises(FormatError, match="/d: chunk 1,2 missing"):
                f.dataset("d").read()
        with File(path, "r", verify_checksums=False) as f:
            with pytest.raises(FormatError, match="chunk 1,2 missing"):
                f.dataset("d")[:, :8]
            assert [m for _, m in verify_dataset(f.dataset("d"))] == [
                "chunk 1,2 missing from the chunk_enc size map"
            ]


FUZZ_DATA = np.random.default_rng(29).normal(size=(8, 64)).astype(np.float32)
FUZZ_LAYOUTS = {
    "contiguous": {"checksum_block": 512},
    "chunked": {"chunks": (4, 32)},
    "packed": {"chunks": (4, 32), "codec": "transpose-zlib"},
}
CRC_KEYS, CRC_BLOCK = "repro:crc32 keys", "repro:crc32 block"
JUNK = st.sampled_from(["x", None, 2.5, float("inf"), [1], -1, 1 << 70])


def _mutate_list(name, edit):
    """A mutation of one list-valued sidecar attribute: ``edit(values,
    draw)`` changes the list in place."""

    def mutate(ds, draw):
        values = list(ds.attrs[name])
        edit(values, draw)
        ds.attrs[name] = values

    return mutate


def _position(values, draw):
    return draw(st.integers(0, len(values) - 1))


def _swap(values, draw):
    i, j = _position(values, draw), _position(values, draw)
    values[i], values[j] = values[j], values[i]


def _junk_member(values, draw):
    values[_position(values, draw)] = draw(JUNK)


def _set_block(ds, draw):
    ds.attrs[CRC_BLOCK] = draw(st.one_of(JUNK, st.sampled_from([0, 1, 511, 1 << 40])))


def _mutate_size(change):
    """A mutation of one entry of the encoded-size map."""

    def mutate(ds, draw):
        sizes = ds._meta["chunk_enc"]
        key = draw(st.sampled_from(sorted(sizes)))
        change(sizes, key, draw)

    return mutate


def _toggle_size_map(ds, draw):
    if ds._meta.pop("chunk_enc", None) is None:
        ds._meta["chunk_enc"] = {}


EVERY, CHUNKED, PACKED = "contiguous chunked packed", "chunked packed", "packed"
# name -> (layouts it applies to, what it does to the stored maps)
MUTATIONS = {
    "none": (EVERY, lambda ds, draw: None),
    "drop-key": (CHUNKED, _mutate_list(CRC_KEYS, lambda v, draw: v.pop(_position(v, draw)))),
    "duplicate-key": (
        CHUNKED, _mutate_list(CRC_KEYS, lambda v, draw: v.append(v[_position(v, draw)]))
    ),
    "reorder-keys": (CHUNKED, _mutate_list(CRC_KEYS, _swap)),
    "junk-key": (CHUNKED, _mutate_list(CRC_KEYS, _junk_member)),
    "truncate-crcs": (EVERY, _mutate_list(CRC_ATTR, lambda v, draw: v.pop())),
    "extend-crcs": (EVERY, _mutate_list(CRC_ATTR, lambda v, draw: v.append(v[0]))),
    "junk-crc": (EVERY, _mutate_list(CRC_ATTR, _junk_member)),
    "block": (EVERY, _set_block),
    "drop-size": (PACKED, _mutate_size(lambda sizes, key, draw: sizes.pop(key))),
    "junk-size": (
        PACKED,
        _mutate_size(
            lambda sizes, key, draw: sizes.__setitem__(
                key, draw(st.one_of(JUNK, st.sampled_from([0, 3, 1 << 12])))
            )
        ),
    ),
    "inflate-size": (
        PACKED,
        _mutate_size(
            lambda sizes, key, draw: sizes.__setitem__(
                key, sizes[key] + draw(st.integers(1, 64))
            )
        ),
    ),
    "size-map": ("chunked packed", _toggle_size_map),
}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_a_mutated_sidecar_never_yields_a_wrong_answer(tmp_path_factory, data):
    layout = data.draw(st.sampled_from(sorted(FUZZ_LAYOUTS)))
    name = data.draw(
        st.sampled_from(sorted(m for m, (where, _) in MUTATIONS.items() if layout in where))
    )
    path = _write_tampered(
        tmp_path_factory.mktemp("fuzz") / "f.h5",
        lambda ds: MUTATIONS[name][1](ds, data.draw),
        FUZZ_DATA, checksum=True, **FUZZ_LAYOUTS[layout],
    )
    if data.draw(st.booleans()):
        _flip(path, data.draw(st.integers(32, 32 + _stored_bytes(path) - 1)))

    raised = None
    try:
        with File(path, "r") as f:
            got = f.dataset("d").read()
    except ReproError as exc:
        raised = exc
    else:
        np.testing.assert_array_equal(got, FUZZ_DATA)
    with File(path, "r") as f:
        problems = verify(f)  # whatever the maps hold, verify reports, never raises
    if raised is not None:
        assert problems, f"{name} on {layout}: read raised {raised!r}, verify found nothing"


def _stored_bytes(path):
    """Length of the data region (everything between header and footer)."""
    with File(path, "r", verify_checksums=False) as f:
        return f._data_end - 32
