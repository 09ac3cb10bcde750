"""Edge coverage: a file is written once (``"r+"``/``"a"`` are refused, a
new file is published on close), engine estimate validation, and misc
small paths."""

import hashlib
import os

import numpy as np
import pytest

from repro.arrayudf.engine import HybridEngine, WorkloadSpec
from repro.cluster import cori_haswell
from repro.errors import ConfigError, FormatError
from repro.hdf5lite import File


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestReadWriteReopen:
    def test_append_dataset_to_existing_file(self, tmp_path):
        # an existing file gains nothing in place: "r+" and "a" are refused
        # and the file keeps its bytes; a dataset is added by writing the
        # file again
        path = str(tmp_path / "f.h5")
        with File(path, "w") as f:
            f.create_dataset("first", data=np.arange(10.0))
        before = _digest(path)
        for mode in ("r+", "a"):
            with pytest.raises(ConfigError, match="unsupported file mode"):
                File(path, mode)
        assert _digest(path) == before
        with File(path, "w") as f:
            f.create_dataset("first", data=np.arange(10.0))
            f.create_dataset("second", data=np.arange(5.0) * 2)
            np.testing.assert_array_equal(f.dataset("first").read(), np.arange(10.0))
        with File(path, "r") as f:
            assert f.datasets() == ["first", "second"]
            np.testing.assert_array_equal(f.dataset("second").read(), np.arange(5.0) * 2)

    def test_modify_data_in_place(self, tmp_path):
        # a hyperslab write goes into the session that creates the dataset
        path = str(tmp_path / "f.h5")
        with File(path, "w") as f:
            f.create_dataset("d", data=np.zeros((4, 4)))
            f.dataset("d")[1, :] = 7.0
        with File(path, "r") as f:
            np.testing.assert_array_equal(f.dataset("d")[1], np.full(4, 7.0))
            np.testing.assert_array_equal(f.dataset("d")[0], np.zeros(4))
            with pytest.raises(FormatError, match="not writable"):
                f.dataset("d")[1, :] = 8.0

    def test_attr_update_on_reopen(self, tmp_path):
        path = str(tmp_path / "f.h5")
        with File(path, "w") as f:
            f.attrs["version"] = 1
        with File(path, "r") as f:
            with pytest.raises(FormatError, match="read-only"):
                f.attrs["version"] = 2
        with File(path, "w") as f:
            f.attrs["version"] = 2
        with File(path, "r") as f:
            assert f.attrs["version"] == 2

    def test_flush_without_changes_noop(self, tmp_path):
        # a read-only open and close leaves the file's bytes and inode as
        # they were
        path = str(tmp_path / "f.h5")
        with File(path, "w") as f:
            f.create_dataset("d", data=np.zeros(4))
        before, inode = _digest(path), os.stat(path).st_ino
        with File(path, "r") as f:
            np.testing.assert_array_equal(f.dataset("d").read(), np.zeros(4))
        assert _digest(path) == before
        assert os.stat(path).st_ino == inode

    def test_explicit_flush_midway(self, tmp_path):
        # a reader sees the previous file until the writer closes
        path = str(tmp_path / "f.h5")
        with File(path, "w") as f:
            f.create_dataset("old", data=np.ones(3))
        writer = File(path, "w")
        writer.create_dataset("d", data=np.arange(6.0))
        with File(path, "r") as reader:
            assert reader.datasets() == ["old"]
        writer.create_dataset("e", data=np.zeros(2))
        assert os.path.exists(path + ".tmp")
        writer.close()
        assert not os.path.exists(path + ".tmp")
        with File(path, "r") as reader:
            assert reader.datasets() == ["d", "e"]
            np.testing.assert_array_equal(reader.dataset("d").read(), np.arange(6.0))

    def test_a_raising_writer_publishes_nothing(self, tmp_path):
        path = str(tmp_path / "f.h5")
        with File(path, "w") as f:
            f.create_dataset("d", data=np.arange(4.0))
        before = _digest(path)
        with pytest.raises(RuntimeError, match="half-way"):
            with File(path, "w") as f:
                f.create_dataset("d", data=np.zeros(4))
                raise RuntimeError("half-way")
        assert _digest(path) == before
        assert sorted(os.listdir(tmp_path)) == ["f.h5"]
        fresh = str(tmp_path / "new.h5")
        with pytest.raises(RuntimeError):
            with File(fresh, "w") as f:
                raise RuntimeError("half-way")
        assert sorted(os.listdir(tmp_path)) == ["f.h5"]

    def test_a_leftover_tmp_is_overwritten(self, tmp_path):
        path = str(tmp_path / "f.h5")
        with open(path + ".tmp", "wb") as fh:
            fh.write(b"torn by a killed writer" * 100)
        with File(path, "w") as f:
            f.create_dataset("d", data=np.arange(3.0))
        assert sorted(os.listdir(tmp_path)) == ["f.h5"]
        with File(path, "r") as f:
            np.testing.assert_array_equal(f.dataset("d").read(), np.arange(3.0))

    def test_many_small_datasets(self, tmp_path):
        path = str(tmp_path / "many.h5")
        with File(path, "w") as f:
            for i in range(100):
                f.create_dataset(f"group{i % 10}/ds{i}", data=np.array([float(i)]))
        with File(path, "r") as f:
            assert len(f["group3"].datasets()) == 10
            np.testing.assert_array_equal(f.dataset("group4/ds44").read(), [44.0])

    def test_empty_dataset_roundtrip(self, tmp_path):
        path = str(tmp_path / "f.h5")
        with File(path, "w") as f:
            f.create_dataset("empty", data=np.zeros((0, 5), dtype=np.float32))
        with File(path, "r") as f:
            ds = f.dataset("empty")
            assert ds.shape == (0, 5)
            assert ds.read().size == 0


class TestEngineEstimateValidation:
    def test_unknown_read_pattern(self):
        engine = HybridEngine(cori_haswell(91), 91, threads_per_rank=8)
        workload = WorkloadSpec(total_bytes=2**30, n_files=10)
        with pytest.raises(ConfigError, match="read pattern"):
            engine.estimate(workload, read_pattern="telepathy")

    def test_workload_properties(self):
        workload = WorkloadSpec(total_bytes=1000, n_files=10, itemsize=4)
        assert workload.file_bytes == 100
        assert workload.total_samples == 250

    def test_zero_master_workload(self):
        engine = HybridEngine(cori_haswell(91), 91, threads_per_rank=8)
        workload = WorkloadSpec(total_bytes=2**30, n_files=4, master_bytes=0)
        report = engine.estimate(workload)
        assert report.failed is None


class TestMiscFormat:
    def test_dataset_on_group_path_rejected(self, tmp_path):
        with File(str(tmp_path / "f.h5"), "w") as f:
            f.create_group("g")
            with pytest.raises(FormatError):
                f.create_dataset("g", data=np.zeros(2))

    def test_group_over_dataset_rejected(self, tmp_path):
        with File(str(tmp_path / "f.h5"), "w") as f:
            f.create_dataset("d", data=np.zeros(2))
            with pytest.raises(FormatError):
                f.create_group("d/sub")

    def test_dataset_lookup_on_group_raises(self, tmp_path):
        with File(str(tmp_path / "f.h5"), "w") as f:
            f.create_group("g")
            with pytest.raises(FormatError, match="group, not a dataset"):
                f.dataset("g")

    def test_empty_names_rejected(self, tmp_path):
        with File(str(tmp_path / "f.h5"), "w") as f:
            with pytest.raises(FormatError):
                f.create_group("")
            with pytest.raises(FormatError):
                f.create_dataset("//", data=np.zeros(1))
