"""The hdf5lite write path: hyperslab writes plan with the read planner
(``plan_spans`` at ``max_gap=0``), and a stored unit and its CRC are
written once, when the dataset is created.

* a random strided ``write_hyperslab`` into a contiguous N-D dataset
  without a sidecar reads back as the same assignment done in numpy and
  issues between the selection's maximal gap-free runs (computed with
  numpy) and one request per innermost run; with a sidecar it is refused
  and the file's bytes are unchanged;
* creating a checksummed contiguous dataset reads nothing back and stores
  ``zlib.crc32`` of each block of the bytes it appended;
* a strided write into a checksummed codec chunked dataset is refused and
  the dataset still verifies.
"""

import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.hdf5lite import File, Hyperslab
from repro.hdf5lite.checksum import (
    CRC_ATTR,
    CRC_BLOCK_ATTR,
    CRC_KEYS_ATTR,
    verify_dataset,
)
from repro.utils.iostats import IOStats


def gap_free_runs(hs, shape):
    """How many maximal gap-free runs the selected elements form: their
    C-order offsets, split wherever two consecutive ones are not adjacent."""
    if hs.size == 0:
        return 0
    grid = np.ix_(*(np.asarray(hs.indices(d)) for d in range(hs.ndim)))
    offsets = np.ravel_multi_index(np.broadcast_arrays(*grid), shape).reshape(-1)
    return 1 + int(np.count_nonzero(np.diff(offsets) > 1))


@st.composite
def write_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    start, count, stride = [], [], []
    for dim in shape:
        step = draw(st.integers(1, 4))
        lo = draw(st.integers(0, dim - 1))
        n = draw(st.integers(0, (dim - 1 - lo) // step + 1))
        start.append(lo)
        count.append(n)
        stride.append(step)
    hs = Hyperslab(tuple(start), tuple(count), tuple(stride))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    block = draw(st.sampled_from([None, 8, 20, 64]))  # None: no sidecar
    return shape, hs, dtype, block


@settings(max_examples=150, deadline=None)
@given(write_cases(), st.integers(0, 2**32 - 1))
def test_strided_writes_equal_numpy_keep_the_sidecar_and_issue_runs(
    tmp_path_factory, case, seed
):
    shape, hs, dtype, block = case
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape).astype(dtype)
    values = rng.normal(size=hs.count).astype(dtype)
    path = str(tmp_path_factory.getbasetemp() / "write_path.h5")
    with File(path, "w") as f:
        f.create_dataset(
            "d", data=data, checksum=block is not None, checksum_block=block
        )
    stats = IOStats()
    if block is not None:  # a checksummed block is written once, at creation
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with File(path, "r+", iostats=stats) as f:
            with pytest.raises(FormatError, match="/d: a checksummed dataset"):
                f.dataset("d").write_hyperslab(hs, values)
        assert stats.writes == 0
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
        with File(path, "r") as f:
            assert verify_dataset(f.dataset("d")) == []
        return
    with File(path, "r+", iostats=stats) as f:
        before = stats.snapshot()
        f.dataset("d").write_hyperslab(hs, values)
        writes = stats.delta(before)["writes"]
    expected = data.copy()
    expected[
        tuple(
            slice(lo, lo + n * step, step)
            for lo, n, step in zip(hs.start, hs.count, hs.stride)
        )
    ] = values
    with File(path, "r") as f:
        ds = f.dataset("d")
        np.testing.assert_array_equal(ds.read(), expected)
        assert CRC_ATTR not in ds.attrs
    inner_run = hs.count[-1] if hs.stride[-1] == 1 else 1
    assert gap_free_runs(hs, shape) <= writes <= hs.size // max(inner_run, 1)


def test_checksummed_contiguous_creation_reads_nothing_back(tmp_path):
    data = np.random.default_rng(1).normal(size=(32, 4000)).astype(np.float32)
    block = 4096 * 3  # 512 000 bytes in 42 blocks, the last one short
    stats = IOStats()
    path = str(tmp_path / "c.h5")
    with File(path, "w", iostats=stats) as f:
        ds = f.create_dataset("d", data=data, checksum=True, checksum_block=block)
        assert stats.reads == 0 and stats.bytes_read == 0
        raw = data.tobytes()
        assert ds.attrs[CRC_ATTR] == [
            zlib.crc32(raw[at : at + block]) for at in range(0, len(raw), block)
        ]
        assert ds.attrs[CRC_BLOCK_ATTR] == block
        assert CRC_KEYS_ATTR not in ds.attrs
    assert stats.reads == 0
    with File(path, "r") as f:
        assert verify_dataset(f.dataset("d")) == []


def test_strided_write_into_a_checksummed_codec_dataset_verifies(tmp_path):
    rng = np.random.default_rng(2)
    data = rng.normal(size=(12, 300)).astype(np.float32)
    path = str(tmp_path / "k.h5")
    with File(path, "w") as f:
        f.create_dataset(
            "d", data=data, chunks=(5, 64), codec="transpose-zlib", checksum=True
        )
    values = rng.normal(size=(4, 49)).astype(np.float32)
    with File(path, "r+") as f:
        with pytest.raises(FormatError, match="/d: writes are only supported"):
            f.dataset("d")[1:12:3, 7:300:6] = values
    with File(path, "r") as f:
        ds = f.dataset("d")
        assert verify_dataset(ds) == []
        np.testing.assert_array_equal(ds.read(), data)
