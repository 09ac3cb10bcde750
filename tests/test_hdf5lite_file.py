"""Tests for hdf5lite File/Group/Attributes and the binary layer."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError, FormatError
from repro.hdf5lite import File
from repro.hdf5lite.binary import HEADER_SIZE, FileBackend, Header
from repro.utils.iostats import IOStats


@pytest.fixture
def tmpfile(tmp_path):
    return str(tmp_path / "test.h5")


class TestFileLifecycle:
    def test_create_and_reopen_empty(self, tmpfile):
        with File(tmpfile, "w"):
            pass
        with File(tmpfile, "r") as f:
            assert f.keys() == []

    def test_mode_a_creates_then_appends(self, tmpfile):
        # files are read ("r") or written once ("w"): "a" and "r+" are
        # refused whether the file exists or not, and create nothing
        for mode in ("a", "r+"):
            with pytest.raises(ConfigError, match="unsupported file mode"):
                File(tmpfile, mode)
        assert not os.path.exists(tmpfile)
        with File(tmpfile, "w") as f:
            f.attrs["x"] = 1
        for mode in ("a", "r+"):
            with pytest.raises(ConfigError, match="unsupported file mode"):
                File(tmpfile, mode)
        with File(tmpfile, "r") as f:
            assert dict(f.attrs) == {"x": 1}

    def test_backend_modes_are_read_and_create(self, tmpfile):
        for mode in ("r+b", "ab", "wb"):
            with pytest.raises(ConfigError, match="unsupported backend mode"):
                FileBackend(tmpfile, mode)

    def test_bad_mode_rejected(self, tmpfile):
        with pytest.raises(ValueError):
            File(tmpfile, "z")

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            File(str(tmp_path / "missing.h5"), "r")

    def test_not_an_hdf5lite_file(self, tmpfile):
        with open(tmpfile, "wb") as fh:
            fh.write(b"this is not the right magic value at all")
        with pytest.raises(FormatError):
            File(tmpfile, "r")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    @pytest.mark.parametrize(
        "tear", ["header", "footer", "footer-json", "footer-not-an-object"]
    )
    def test_a_failed_open_leaks_no_fd(self, tmpfile, tear):
        """A torn or malformed file raises ``FormatError`` out of
        ``File(path, "r")`` before the caller holds anything it could
        close, so the open closes its own fd."""
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=np.arange(64.0))
        raw = Path(tmpfile).read_bytes()
        header = Header.unpack(raw)
        footer = raw[header.meta_offset:]
        torn = {
            "header": raw[: HEADER_SIZE // 2],
            "footer": raw[: header.meta_offset + len(footer) // 2],
            "footer-json": raw[: header.meta_offset] + b"{" * len(footer),
            "footer-not-an-object": raw[: header.meta_offset] + b"[]".ljust(len(footer)),
        }[tear]
        Path(tmpfile).write_bytes(torn)
        fds = len(os.listdir("/proc/self/fd"))
        errors = []
        for _ in range(50):
            with pytest.raises(FormatError) as info:
                File(tmpfile, "r")
            errors.append(info.value)  # a kept traceback keeps its frames
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_context_manager_closes(self, tmpfile):
        with File(tmpfile, "w") as f:
            pass
        assert f.closed

    def test_double_close_is_safe(self, tmpfile):
        f = File(tmpfile, "w")
        f.close()
        f.close()

    def test_readonly_rejects_writes(self, tmpfile):
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=np.zeros(4))
        with File(tmpfile, "r") as f:
            with pytest.raises(FormatError):
                f.create_dataset("e", data=np.zeros(4))
            with pytest.raises(FormatError):
                f.attrs["x"] = 1
            with pytest.raises(FormatError):
                f.dataset("d")[0:2] = [1, 2]


class TestHeader:
    def test_roundtrip(self):
        h = Header(1, 1234, 567)
        assert Header.unpack(h.pack()) == h

    def test_short_header_rejected(self):
        with pytest.raises(FormatError):
            Header.unpack(b"short")


class TestBackend:
    def test_read_write_at(self, tmpfile):
        stats = IOStats()
        with FileBackend(tmpfile, "w+b", stats) as be:
            be.write_at(0, b"hello world")
            assert be.read_at(6, 5) == b"world"
        assert stats.opens == 1
        assert stats.closes == 1
        assert stats.writes == 1
        assert stats.reads == 1

    def test_short_read_raises(self, tmpfile):
        with FileBackend(tmpfile, "w+b") as be:
            be.write_at(0, b"abc")
            with pytest.raises(FormatError):
                be.read_at(0, 100)

    def test_sequential_reads_skip_seeks(self, tmpfile):
        stats = IOStats()
        with FileBackend(tmpfile, "w+b", stats) as be:
            be.write_at(0, b"0123456789")
            stats.reset()
            be.read_at(0, 2)
            be.read_at(2, 2)  # sequential: no extra seek
            be.read_at(8, 2)  # jump: one seek
        assert stats.seeks == 2  # initial position + the jump


class TestGroups:
    def test_nested_group_creation(self, tmpfile):
        with File(tmpfile, "w") as f:
            g = f.create_group("a/b/c")
            assert g.path == "/a/b/c"
        with File(tmpfile, "r") as f:
            assert "a" in f
            assert "a/b/c" in f
            assert f["a/b"].groups() == ["c"]

    def test_getitem_missing_raises_keyerror(self, tmpfile):
        with File(tmpfile, "w") as f:
            with pytest.raises(KeyError):
                f["nope"]

    def test_visit_lists_descendants(self, tmpfile):
        with File(tmpfile, "w") as f:
            f.create_group("g1/g2")
            f.create_dataset("g1/d", data=np.zeros(2))
            paths = set(f.visit())
        assert paths == {"/g1", "/g1/g2", "/g1/d"}

    def test_keys_sorted_union(self, tmpfile):
        with File(tmpfile, "w") as f:
            f.create_group("zebra")
            f.create_dataset("alpha", data=np.zeros(1))
            assert f.keys() == ["alpha", "zebra"]

    def test_len_and_iter(self, tmpfile):
        with File(tmpfile, "w") as f:
            f.create_group("a")
            f.create_dataset("b", data=np.zeros(1))
            assert len(f) == 2
            assert list(f) == ["a", "b"]

    def test_duplicate_dataset_rejected(self, tmpfile):
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=np.zeros(1))
            with pytest.raises(FormatError):
                f.create_dataset("d", data=np.zeros(1))

    def test_invalid_path_component(self, tmpfile):
        with File(tmpfile, "w") as f:
            with pytest.raises(FormatError):
                f.create_group("a/../b")


class TestAttributes:
    def test_scalar_roundtrip(self, tmpfile):
        with File(tmpfile, "w") as f:
            f.attrs["SamplingFrequency(HZ)"] = 500
            f.attrs["SpatialResolution(m)"] = 2.0
            f.attrs["TimeStamp(yymmddhhmmss)"] = "170620100545"
            f.attrs["flag"] = True
        with File(tmpfile, "r") as f:
            assert f.attrs["SamplingFrequency(HZ)"] == 500
            assert f.attrs["SpatialResolution(m)"] == 2.0
            assert f.attrs["TimeStamp(yymmddhhmmss)"] == "170620100545"
            assert f.attrs["flag"] is True

    def test_numpy_scalars_coerced(self, tmpfile):
        with File(tmpfile, "w") as f:
            f.attrs["n"] = np.int64(11648)
            f.attrs["x"] = np.float32(1.5)
        with File(tmpfile, "r") as f:
            assert f.attrs["n"] == 11648
            assert isinstance(f.attrs["n"], int)

    def test_list_and_1d_array(self, tmpfile):
        with File(tmpfile, "w") as f:
            f.attrs["lst"] = [1, 2, 3]
            f.attrs["arr"] = np.array([4.0, 5.0])
        with File(tmpfile, "r") as f:
            assert f.attrs["lst"] == [1, 2, 3]
            assert f.attrs["arr"] == [4.0, 5.0]

    def test_2d_array_rejected(self, tmpfile):
        with File(tmpfile, "w") as f:
            with pytest.raises(FormatError):
                f.attrs["bad"] = np.zeros((2, 2))

    def test_unstorable_rejected(self, tmpfile):
        with File(tmpfile, "w") as f:
            with pytest.raises(FormatError):
                f.attrs["bad"] = object()

    def test_non_string_key_rejected(self, tmpfile):
        with File(tmpfile, "w") as f:
            with pytest.raises(FormatError):
                f.attrs[3] = "x"

    def test_delete(self, tmpfile):
        with File(tmpfile, "w") as f:
            f.attrs["x"] = 1
            del f.attrs["x"]
            assert "x" not in f.attrs

    def test_dataset_attrs_persist(self, tmpfile):
        with File(tmpfile, "w") as f:
            ds = f.create_dataset("d", data=np.zeros(3))
            ds.attrs["Number of raw data values"] = 45
        with File(tmpfile, "r") as f:
            assert f.dataset("d").attrs["Number of raw data values"] == 45

    def test_group_attrs_persist(self, tmpfile):
        with File(tmpfile, "w") as f:
            g = f.create_group("Measurement/1")
            g.attrs["Array dimension"] = 1
        with File(tmpfile, "r") as f:
            assert f["Measurement/1"].attrs["Array dimension"] == 1


class TestDasMetadataLayout:
    """The two-level KV metadata structure of the paper's Fig. 4."""

    def test_fig4_structure(self, tmpfile):
        n_channels = 16
        with File(tmpfile, "w") as f:
            f.attrs["SamplingFrequency(HZ)"] = 500
            f.attrs["SpatialResolution(m)"] = 2
            f.attrs["TimeStamp(yymmddhhmmss)"] = "170620100545"
            f.attrs["Number of objects"] = n_channels
            for ch in range(1, n_channels + 1):
                g = f.create_group(f"Measurement/{ch}")
                g.attrs["Array dimension"] = 1
                g.attrs["Number of raw data values"] = 45
            f.create_dataset("DataCT", data=np.zeros((n_channels, 45), dtype=np.float32))
        with File(tmpfile, "r") as f:
            assert f.attrs["Number of objects"] == n_channels
            assert len(f["Measurement"]) == n_channels
            assert f.dataset("DataCT").shape == (n_channels, 45)
            assert f["Measurement/7"].attrs["Number of raw data values"] == 45
