"""The one overlap loop, ``_in_groups``, both ways: the chunk store's
encodes overlap on a pool owned by the call, and a read's codec decodes
on a pool owned by the outermost read; every write and every backend
request stays on the calling thread in grid order.

* files written with encodes overlapping are byte-identical to a serial
  run (the CPU helper patched to 1) — ``write_das_file``, each codec and
  raw chunks over ragged and one-chunk grids; a multi-chunk hyperslab
  write into a checksummed chunked dataset is refused with no encode and
  no thread, the file's bytes unchanged;
* a codec's ``encode`` runs on at most ``workers + 1`` threads at once
  (one with one CPU), and the store draws its items no further ahead than
  that;
* the first chunk in grid order that fails to encode raises its own
  exception, the dataset is not added, and the file still verifies;
* the pool is gone when ``create_dataset`` returns or raises, and with
  one CPU no thread is started;
* multi-chunk full, block and strided reads of a checksummed
  ``transpose-zlib`` file and of a VCA over three such files equal the
  serial read (the CPU helper patched to 1) and the frozen chunk loop
  they replaced — values, ``IOStats`` and the backend request list,
  every request on the calling thread — with
  one pool per read, decodes on at most ``workers + 1`` threads at once,
  and no pool for a one-chunk or a cached read;
* with chunks k and k + 2 corrupt, chunk k's ``CorruptDataError`` is the
  one raised, also when the request behind it fails; a masked source's
  fill lands after its in-flight decodes; no thread outlives a read.
"""

import hashlib
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.hdf5lite.dataset as dataset_mod
from repro.errors import CorruptDataError, FormatError
from repro.hdf5lite import CacheConfig, Codec, File, VirtualSource, register_codec
from repro.hdf5lite.binary import FileBackend
from repro.hdf5lite.codecs import CODEC_ATTR, TransposeZlibCodec
from repro.hdf5lite.dataset import Dataset
from repro.utils import cpus as cpu_rule
from repro.utils.iostats import IOStats
from repro.hdf5lite.inspect import verify
from repro.storage.dasfile import DASMetadata, write_das_file
from tests.reference.hdf5lite import parent_load_unit, parent_read_chunked

#: The CPU count the concurrent runs are given: two workers plus the
#: calling thread, whatever the machine has.
CPUS = 3


def _cpus(monkeypatch, n):
    monkeypatch.setattr(cpu_rule, "available", lambda: n)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _problems(path):
    with File(path, "r") as f:
        return verify(f)


def _signal(shape=(40, 3000), seed=0):
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.normal(size=shape), axis=-1).astype(np.float32)
    data[:, 1000:1400] = 0.0  # a dead span: planes differ between chunks
    return data


def _both(monkeypatch, tmp_path, write, cpus=CPUS):
    """``write(path)`` once serially and once with overlapping encodes;
    returns the two files' digests."""
    digests = []
    for n, name in ((1, "serial.h5"), (cpus, "pooled.h5")):
        _cpus(monkeypatch, n)
        path = str(tmp_path / name)
        write(path)
        digests.append(_digest(path))
    return digests


class _Recording(Codec):
    """Stores chunks raw, counting how many ``encode`` calls overlap; a
    chunk whose first sample is negative fails with a message naming it."""

    spec = "unit-overlap"

    def __init__(self):
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.calls = 0

    def encode(self, arr):
        with self.lock:
            self.active += 1
            self.calls += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(0.005)  # releases the GIL, as zlib does
            if arr.flat[0] < 0:
                raise FormatError(f"cannot encode chunk starting {arr.flat[0]}")
            return np.ascontiguousarray(arr).tobytes()
        finally:
            with self.lock:
                self.active -= 1

    def _decode_whole(self, payload, shape, dtype):
        return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


RECORDING = _Recording()
register_codec("unit-overlap", lambda params: RECORDING)


@pytest.fixture
def recording():
    RECORDING.active = RECORDING.peak = RECORDING.calls = 0
    return RECORDING


class TestSameBytes:
    def test_write_das_file_packed_and_checksummed(self, monkeypatch, tmp_path):
        data = _signal((48, 9000))

        def write(path):
            write_das_file(
                path, data,
                DASMetadata(sampling_frequency=500.0, timestamp="170101000000"),
                channel_groups=False, chunks=(32, 4096),
                codec="transpose-zlib", checksum=True,
            )

        serial, pooled = _both(monkeypatch, tmp_path, write)
        assert serial == pooled

    @pytest.mark.parametrize(
        "codec", [None, "delta-zlib", "transpose-zlib", "transpose-zlib:1", "quantize:1e-3"]
    )
    @pytest.mark.parametrize(
        "chunks", [(16, 1024), (7, 999), (40, 3000)], ids=["even", "ragged", "one"]
    )
    def test_create_dataset(self, monkeypatch, tmp_path, codec, chunks):
        data = _signal()

        def write(path):
            with File(path, "w") as f:
                f.create_dataset("d", data=data, chunks=chunks, codec=codec, checksum=True)

        serial, pooled = _both(monkeypatch, tmp_path, write)
        assert serial == pooled
        with File(str(tmp_path / "pooled.h5"), "r") as f:
            if codec is None or not codec.startswith("quantize"):
                np.testing.assert_array_equal(f["d"][:], data)
        assert _problems(str(tmp_path / "pooled.h5")) == []

    def test_many_workers_and_a_short_switch_interval(self, monkeypatch, tmp_path):
        # more threads than cores, handing the GIL over every microsecond:
        # a payload stored out of order or twice changes the digest
        data = _signal()

        def write(path):
            with File(path, "w") as f:
                f.create_dataset(
                    "d", data=data, chunks=(3, 97), codec="transpose-zlib", checksum=True
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serial, pooled = _both(monkeypatch, tmp_path, write, cpus=6)
        finally:
            sys.setswitchinterval(interval)
        assert serial == pooled

    @pytest.mark.parametrize("codec", [None, "transpose-zlib", "delta-zlib"])
    def test_hyperslab_write_into_a_checksummed_dataset(
        self, monkeypatch, tmp_path, codec
    ):
        # chunks are stored once, at creation: the write is refused before
        # any chunk is encoded, a pool started or a byte written
        data = _signal()
        patch = np.random.default_rng(1).normal(size=(30, 900)).astype(np.float32) * 50
        clean, path = str(tmp_path / "clean.h5"), str(tmp_path / "d.h5")
        with File(clean, "w") as f:
            f.create_dataset("d", data=data, chunks=(16, 1024), codec=codec, checksum=True)
        _cpus(monkeypatch, CPUS)
        with File(path, "w") as f:
            f.create_dataset("d", data=data, chunks=(16, 1024), codec=codec, checksum=True)
            stored = []
            monkeypatch.setattr(
                Dataset, "_store_chunks", lambda *args: stored.append(args)
            )
            baseline = threading.active_count()
            with pytest.raises(FormatError, match="/d: writes are only supported"):
                f["d"][5:35, 100:2800:3] = patch
            assert threading.active_count() == baseline
        assert stored == []
        assert _digest(path) == _digest(clean)
        with File(path, "r") as f:
            np.testing.assert_array_equal(f["d"][:], data)
        assert _problems(path) == []


class TestConcurrency:
    def test_encodes_overlap_within_workers_plus_one(
        self, monkeypatch, tmp_path, recording
    ):
        _cpus(monkeypatch, CPUS)
        with File(str(tmp_path / "t.h5"), "w") as f:
            f.create_dataset("d", data=np.abs(_signal()), chunks=(8, 500), codec="unit-overlap")
        assert recording.calls == 5 * 6
        assert 1 < recording.peak <= CPUS

    def test_one_cpu_encodes_one_at_a_time_and_starts_no_thread(
        self, monkeypatch, tmp_path, recording
    ):
        _cpus(monkeypatch, 1)
        starts = []
        real_start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda self: (starts.append(self), real_start(self))
        )
        with File(str(tmp_path / "t.h5"), "w") as f:
            f.create_dataset("d", data=np.abs(_signal()), chunks=(8, 500), codec="unit-overlap")
        assert recording.calls == 30
        assert recording.peak == 1
        assert starts == []

    def test_items_are_drawn_no_further_ahead_than_workers_plus_one(
        self, monkeypatch, tmp_path
    ):
        _cpus(monkeypatch, CPUS)
        data = _signal()
        with File(str(tmp_path / "t.h5"), "w") as f:
            ds = f.create_dataset("d", data=data, chunks=(8, 500), codec="delta-zlib")
            stored = []
            real_append = f._append_data
            monkeypatch.setattr(
                f, "_append_data", lambda payload: (stored.append(1), real_append(payload))[1]
            )
            ahead = []

            def items():
                for i in range(12):
                    ahead.append(i - len(stored))
                    yield f"x{i}", data[:8, :500]

            ds._store_chunks(items(), ds.codec)
        assert len(stored) == 12
        assert max(ahead) <= CPUS


class TestFailure:
    @pytest.mark.parametrize("cpus", [1, CPUS])
    @pytest.mark.parametrize("failing", [(0,), (4,), (3, 4), (5, 9)])
    def test_first_failing_chunk_raises_and_the_file_verifies(
        self, monkeypatch, tmp_path, recording, cpus, failing
    ):
        _cpus(monkeypatch, cpus)
        data = np.abs(_signal((8, 5000))) + 1.0
        for k in failing:
            data[0, k * 500] = -(k + 1)  # chunk k's first sample
        path = str(tmp_path / "t.h5")
        baseline = threading.active_count()
        with File(path, "w") as f:
            f.create_dataset("kept", data=data[:, :100], chunks=(8, 50), checksum=True)
            with pytest.raises(FormatError, match=f"starting {-(failing[0] + 1)}.0$"):
                f.create_dataset(
                    "d", data=data, chunks=(8, 500), codec="unit-overlap", checksum=True
                )
            assert threading.active_count() == baseline
            assert "d" not in f
        with File(path, "r") as f:
            assert f.keys() == ["kept"]
            np.testing.assert_array_equal(f["kept"][:], data[:, :100])
        assert _problems(path) == []


def test_the_pool_is_gone_after_every_create_dataset(monkeypatch, tmp_path):
    _cpus(monkeypatch, CPUS)
    baseline = threading.active_count()
    with File(str(tmp_path / "t.h5"), "w") as f:
        for i, codec in enumerate([None, "transpose-zlib", "delta-zlib"]):
            f.create_dataset(f"d{i}", data=_signal(), chunks=(8, 500), codec=codec)
            assert threading.active_count() == baseline
        with pytest.raises(FormatError):
            f.create_dataset(
                "q", data=_signal(), chunks=(8, 500), codec="quantize:1e-30"
            )
        assert threading.active_count() == baseline
        assert f["d1"].attrs[CODEC_ATTR] == "transpose-zlib"


# ---------------------------------------------------------------------------
# decodes: the same loop, on a pool the outermost read owns
# ---------------------------------------------------------------------------

READ_SHAPE, READ_CHUNKS = (16, 3000), (8, 500)  # 2 x 6 chunks a file
N_FILES = 3


def _selections(n_samples):
    return {
        "full": (slice(None), slice(None)),
        "block": (slice(3, 13), slice(700, n_samples - 400)),
        "strided": (slice(None), slice(5, None, 8)),
    }


def _write_packed(root):
    """Three checksummed ``transpose-zlib`` files and a VCA over them,
    end to end in time; returns the VCA's samples."""
    blocks = [_signal(READ_SHAPE, seed) for seed in range(N_FILES)]
    for i, block in enumerate(blocks):
        with File(str(root / f"m{i}.h5"), "w") as f:
            f.create_dataset(
                "d", data=block, chunks=READ_CHUNKS, codec="transpose-zlib", checksum=True
            )
    n = READ_SHAPE[1]
    with File(str(root / "v.h5"), "w") as f:
        f.create_dataset(
            "v",
            shape=(READ_SHAPE[0], N_FILES * n),
            dtype=np.float32,
            virtual_sources=[
                VirtualSource(f"m{i}.h5", "/d", (0, 0), (0, i * n), READ_SHAPE)
                for i in range(N_FILES)
            ],
        )
    return blocks


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    root = tmp_path_factory.mktemp("packed")
    blocks = _write_packed(root)
    return root, {"file": blocks[0], "vca": np.concatenate(blocks, axis=1)}


TARGETS = {"file": ("m0.h5", "d"), "vca": ("v.h5", "v")}


class _Spy:
    """Records every backend request (file, offset, bytes, thread) and the
    thread of every ``transpose-zlib`` decode, and counts pools and how
    many decodes overlap."""

    def __init__(self, monkeypatch):
        self.requests, self.decoders, self.pools = [], [], 0
        self.lock = threading.Lock()
        self.active = self.peak = 0
        monkeypatch.setattr(FileBackend, "read_fault_hook", self.request)
        real_decode = TransposeZlibCodec.decode

        def decode(codec, *args, **kwargs):
            with self.lock:
                self.decoders.append(threading.current_thread().name)
                self.active += 1
                self.peak = max(self.peak, self.active)
            try:
                time.sleep(0.002)  # releases the GIL, as inflate does
                return real_decode(codec, *args, **kwargs)
            finally:
                with self.lock:
                    self.active -= 1

        monkeypatch.setattr(TransposeZlibCodec, "decode", decode)
        spy = self

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                spy.pools += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(dataset_mod, "ThreadPoolExecutor", Counted)

    def request(self, path, offset, nbytes):
        self.requests.append(
            (os.path.basename(path), offset, nbytes, threading.current_thread().name)
        )


def _read(root, target, sel, cpus, frozen=False):
    """One read of ``sel`` with ``cpus`` CPUs — or, ``frozen``, through
    the chunk loop as it was before decodes overlapped: ``(values,
    IOStats, spy)``; no thread outlives it."""
    name, dataset = TARGETS[target]
    stats = IOStats()
    with pytest.MonkeyPatch.context() as mp:
        _cpus(mp, cpus)
        if frozen:
            mp.setattr(Dataset, "_load_unit", parent_load_unit)
            mp.setattr(Dataset, "_read_chunked", parent_read_chunked)
        spy = _Spy(mp)
        baseline = threading.active_count()
        with File(str(root / name), "r", iostats=stats) as f:
            values = f.dataset(dataset)[sel]
        assert threading.active_count() == baseline
    return values, stats.full_snapshot(), spy


class TestDecodes:
    @pytest.mark.parametrize("target", sorted(TARGETS))
    @pytest.mark.parametrize("how", ["full", "block", "strided"])
    def test_pooled_read_is_the_serial_read(self, packed, target, how):
        root, samples = packed
        sel = _selections(samples[target].shape[1])[how]
        frozen, frozen_io, before = _read(root, target, sel, CPUS, frozen=True)
        serial, serial_io, one = _read(root, target, sel, 1)
        pooled, pooled_io, three = _read(root, target, sel, CPUS)
        np.testing.assert_array_equal(frozen, samples[target][sel])
        np.testing.assert_array_equal(serial, frozen)
        np.testing.assert_array_equal(pooled, frozen)
        assert serial_io == pooled_io == frozen_io
        # every backend request, in the frozen loop's order, on the
        # calling thread
        assert one.requests == three.requests == before.requests
        assert {thread for *_, thread in three.requests} == {"MainThread"}
        # decodes: all on the caller with one CPU; with three, on the
        # read's one pool too, at most workers + 1 at once
        assert len(three.decoders) == len(one.decoders) > N_FILES
        assert set(one.decoders) == {"MainThread"} and one.pools == 0
        assert "MainThread" in three.decoders
        assert any(name.startswith("decode") for name in three.decoders)
        assert three.pools == 1
        assert 1 < three.peak <= CPUS

    def test_many_workers_and_a_short_switch_interval(self, packed):
        # more threads than cores, handing the GIL over every microsecond:
        # a chunk scattered twice, late or into another's place shows
        root, samples = packed
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for how, sel in _selections(samples["vca"].shape[1]).items():
                values, _io, spy = _read(root, "vca", sel, 6)
                np.testing.assert_array_equal(values, samples["vca"][sel])
                assert spy.pools == 1 and 1 < spy.peak <= 6, how
        finally:
            sys.setswitchinterval(interval)

    def test_a_one_chunk_read_starts_no_pool(self, packed):
        root, samples = packed
        values, _io, spy = _read(root, "vca", (slice(0, 8), slice(0, 500)), CPUS)
        np.testing.assert_array_equal(values, samples["vca"][:8, :500])
        assert spy.pools == 0 and spy.decoders == ["MainThread"]

    def test_a_cached_read_decodes_on_the_caller(self, monkeypatch, packed):
        # lookups and admissions stay on the calling thread: a chunk the
        # cache can hold is loaded there, whole
        root, samples = packed
        _cpus(monkeypatch, CPUS)
        spy = _Spy(monkeypatch)
        with File(str(root / "m0.h5"), "r", cache=CacheConfig()) as f:
            for _temperature in ("cold", "warm"):
                np.testing.assert_array_equal(f.dataset("d")[:, ::3], samples["file"][:, ::3])
        assert spy.pools == 0 and set(spy.decoders) == {"MainThread"}
        assert len(spy.decoders) == 12


def _flip(path, key):
    """Flip one stored byte of chunk ``key``; returns the chunk's offset."""
    with File(path, "r") as f:
        ds = f.dataset("d")
        offset, nbytes = int(ds._meta["chunk_index"][key]), ds._meta["chunk_enc"][key]
    with open(path, "r+b") as fh:
        fh.seek(offset + nbytes // 2)
        byte = fh.read(1)
        fh.seek(offset + nbytes // 2)
        fh.write(bytes([byte[0] ^ 0x10]))
    return offset


def _key(k):
    columns = READ_SHAPE[1] // READ_CHUNKS[1]
    return f"{k // columns},{k % columns}"


class TestDecodeFailure:
    @pytest.mark.parametrize("cpus", [1, CPUS])
    @pytest.mark.parametrize("target", sorted(TARGETS))
    @pytest.mark.parametrize("k", [0, 1, 4, 9])
    def test_first_corrupt_chunk_in_grid_order_raises(
        self, monkeypatch, tmp_path, cpus, target, k
    ):
        _write_packed(tmp_path)
        victim = str(tmp_path / ("m0.h5" if target == "file" else "m1.h5"))
        offset = _flip(victim, _key(k))
        _flip(victim, _key(k + 2))
        _cpus(monkeypatch, cpus)
        name, dataset = TARGETS[target]
        baseline = threading.active_count()
        with File(str(tmp_path / name), "r") as f:
            with pytest.raises(CorruptDataError, match=f"on chunk {_key(k)}:") as info:
                f.dataset(dataset)[:, :]
            assert threading.active_count() == baseline
        assert (info.value.path, info.value.offset) == (victim, offset)

    @pytest.mark.parametrize("cpus", [1, CPUS])
    def test_a_failed_request_behind_a_corrupt_chunk_waits_its_turn(
        self, monkeypatch, tmp_path, cpus
    ):
        # chunk 3 is corrupt and the request for chunk 4 fails: chunk 3,
        # first in grid order, is the error, whichever thread verifies it
        _write_packed(tmp_path)
        path = str(tmp_path / "m0.h5")
        _flip(path, _key(3))
        with File(path, "r") as f:
            broken = int(f.dataset("d")._meta["chunk_index"][_key(4)])

        def hook(_path, offset, _nbytes):
            if offset == broken:
                raise OSError("device error")

        monkeypatch.setattr(FileBackend, "read_fault_hook", hook)
        _cpus(monkeypatch, cpus)
        baseline = threading.active_count()
        with File(path, "r") as f:
            with pytest.raises(CorruptDataError, match=f"on chunk {_key(3)}:"):
                f.dataset("d")[:, :]
            with pytest.raises(OSError, match="device error"):
                f.dataset("d")[:, 2000:2500]
        assert threading.active_count() == baseline

    def test_a_masked_source_drains_its_decodes_before_the_fill(self, tmp_path):
        # chunk 0 of the middle source fails on the calling thread while
        # chunk 1 still decodes on the pool: the fill lands after it, so
        # the masked span is fill throughout
        blocks = _write_packed(tmp_path)
        _flip(str(tmp_path / "m1.h5"), _key(0))
        n = READ_SHAPE[1]
        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, CPUS)
            spy = _Spy(mp)
            with File(str(tmp_path / "v.h5"), "r") as f:
                ds = f.dataset("v")
                masked = []
                ds.on_source_error = lambda source, span, exc: masked.append(exc) or np.nan
                values = ds[:, :]
        assert len(masked) == 1 and isinstance(masked[0], CorruptDataError)
        assert spy.pools == 1
        assert np.isnan(values[:, n : 2 * n]).all()
        np.testing.assert_array_equal(values[:, :n], blocks[0])
        np.testing.assert_array_equal(values[:, 2 * n :], blocks[2])
