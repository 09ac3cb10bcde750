"""The one chunk store, ``Dataset._store_chunks``: chunk encodes overlap on
a pool owned by the call, every write stays on the calling thread in grid
order.

* files written with encodes overlapping are byte-identical to a serial
  run (the CPU helper patched to 1) — ``write_das_file``, each codec and
  raw chunks over ragged and one-chunk grids, a multi-chunk hyperslab
  write into a checksummed codec dataset;
* a codec's ``encode`` runs on at most ``workers + 1`` threads at once
  (one with one CPU), and the store draws its items no further ahead than
  that;
* the first chunk in grid order that fails to encode raises its own
  exception, the dataset is not added, and the file still verifies;
* the pool is gone when ``create_dataset`` returns or raises, and with
  one CPU no thread is started.
"""

import hashlib
import sys
import threading
import time

import numpy as np
import pytest

import repro.hdf5lite.dataset as dataset_mod
from repro.errors import FormatError
from repro.hdf5lite import Codec, File, register_codec
from repro.hdf5lite.codecs import CODEC_ATTR
from repro.hdf5lite.inspect import verify
from repro.storage.dasfile import DASMetadata, write_das_file

#: The CPU count the concurrent runs are given: two workers plus the
#: calling thread, whatever the machine has.
CPUS = 3


def _cpus(monkeypatch, n):
    monkeypatch.setattr(dataset_mod, "_cpus", lambda: n)


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
        data = _signal()
        patch = np.random.default_rng(1).normal(size=(30, 900)).astype(np.float32) * 50

        def write(path, cpus):
            _cpus(monkeypatch, 1)
            with File(path, "w") as f:
                f.create_dataset("d", data=data, chunks=(16, 1024), codec=codec, checksum=True)
            _cpus(monkeypatch, cpus)
            with File(path, "r+") as f:
                f["d"][5:35, 100:2800:3] = patch
            return _digest(path)

        digests = [
            write(str(tmp_path / name), cpus)
            for cpus, name in ((1, "serial.h5"), (CPUS, "pooled.h5"))
        ]
        assert digests[0] == digests[1]
        expected = data.copy()
        expected[5:35, 100:2800:3] = patch
        with File(str(tmp_path / "pooled.h5"), "r") as f:
            np.testing.assert_array_equal(f["d"][:], expected)
        assert _problems(str(tmp_path / "pooled.h5")) == []


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
                    yield f"x{i}", data[:8, :500], None

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
