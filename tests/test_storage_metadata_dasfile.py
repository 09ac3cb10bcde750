"""Tests for DAS metadata, timestamps, and the per-minute file format."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.hdf5lite import File
from repro.storage.dasfile import (
    DASFile,
    das_filename,
    read_das_file,
    read_das_metadata,
    write_das_file,
)
from repro.storage.metadata import (
    DASMetadata,
    format_timestamp,
    parse_timestamp,
    timestamp_add_seconds,
)
from repro.storage.search import das_search, scan_directory


class TestTimestamps:
    def test_parse_roundtrip(self):
        stamp = "170728224510"
        assert format_timestamp(parse_timestamp(stamp)) == stamp

    def test_parse_fields(self):
        when = parse_timestamp("170620100545")
        assert (when.year, when.month, when.day) == (2017, 6, 20)
        assert (when.hour, when.minute, when.second) == (10, 5, 45)

    def test_add_seconds(self):
        assert timestamp_add_seconds("170620100545", 60) == "170620100645"
        assert timestamp_add_seconds("170620235930", 60) == "170621000030"

    def test_add_crosses_midnight_and_year(self):
        assert timestamp_add_seconds("171231235959", 2) == "180101000001"

    @pytest.mark.parametrize("bad", ["17062010054", "1706201005456", "abc", "17062a100545"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(StorageError):
            parse_timestamp(bad)

    def test_lexicographic_order_is_time_order(self):
        stamps = ["170620100545", "170620100645", "171231235959", "180101000001"]
        parsed = [parse_timestamp(s) for s in stamps]
        assert sorted(stamps) == [format_timestamp(p) for p in sorted(parsed)]


class TestDASMetadata:
    def test_attrs_roundtrip(self):
        meta = DASMetadata(500.0, 2.0, "170620100545", 11648, extras={"site": "westSac"})
        rebuilt = DASMetadata.from_attrs(meta.to_attrs())
        assert rebuilt == meta

    def test_fig4_keys_present(self):
        attrs = DASMetadata().to_attrs()
        assert "SamplingFrequency(HZ)" in attrs
        assert "SpatialResolution(m)" in attrs
        assert "TimeStamp(yymmddhhmmss)" in attrs
        assert "Number of objects" in attrs

    def test_missing_key_rejected(self):
        with pytest.raises(StorageError, match="not a DAS file"):
            DASMetadata.from_attrs({"SamplingFrequency(HZ)": 500})

    def test_invalid_values(self):
        with pytest.raises(StorageError):
            DASMetadata(sampling_frequency=0)
        with pytest.raises(StorageError):
            DASMetadata(spatial_resolution=-1)
        with pytest.raises(StorageError):
            DASMetadata(timestamp="nope")
        with pytest.raises(StorageError):
            DASMetadata(n_channels=-1)
        for value in (float("nan"), float("inf")):
            with pytest.raises(StorageError):
                DASMetadata(sampling_frequency=value)
            with pytest.raises(StorageError):
                DASMetadata(spatial_resolution=value)

    @pytest.mark.parametrize("key, value", [
        ("Number of objects", float("nan")),
        ("Number of objects", "many"),
        ("SamplingFrequency(HZ)", float("inf")),
        ("SpatialResolution(m)", None),
    ])
    def test_malformed_attrs_rejected(self, key, value):
        attrs = DASMetadata().to_attrs()
        attrs[key] = value
        with pytest.raises(StorageError):
            DASMetadata.from_attrs(attrs)

    def test_search_skips_a_malformed_file(self, tmp_path):
        """One file with a NaN channel count is not a DAS file: a search
        and a scan (both read the footer of a stamp-less name) return the
        good one instead of aborting."""
        for name in ("good.h5", "bad.h5"):
            write_das_file(str(tmp_path / name), np.zeros((2, 10)), DASMetadata())
        with File(str(tmp_path / "bad.h5"), "a") as f:
            f.attrs["Number of objects"] = float("nan")
        good = [str(tmp_path / "good.h5")]
        assert [i.path for i in das_search(tmp_path, pattern=".*")] == good
        assert [i.path for i in scan_directory(tmp_path)] == good


class TestDASFileIO:
    def test_filename_convention(self):
        assert das_filename("170620100545") == "westSac_170620100545.h5"

    def test_write_read_roundtrip(self, tmp_path):
        data = np.random.default_rng(0).normal(size=(8, 50)).astype(np.float32)
        meta = DASMetadata(500.0, 2.0, "170620100545", 8)
        path = str(tmp_path / "f.h5")
        write_das_file(path, data, meta)
        back, meta_back = read_das_file(path)
        np.testing.assert_array_equal(back, data)
        assert meta_back.timestamp == meta.timestamp
        assert meta_back.n_channels == 8

    def test_metadata_only_read(self, tmp_path):
        data = np.zeros((4, 30), dtype=np.float32)
        path = str(tmp_path / "f.h5")
        write_das_file(path, data, DASMetadata(n_channels=4))
        meta, shape = read_das_metadata(path)
        assert shape == (4, 30)
        assert meta.sampling_frequency == 500.0

    def test_channel_groups_written(self, tmp_path):
        data = np.zeros((3, 10), dtype=np.float32)
        path = str(tmp_path / "f.h5")
        write_das_file(path, data, DASMetadata(n_channels=3), channel_groups=True)
        with File(path, "r") as f:
            info = f["Measurement/2"].attrs
            assert info["Array dimension"] == 1
            assert info["Number of raw data values"] == 10
            assert "Measurement" in f
        write_das_file(path, data, DASMetadata(n_channels=3), channel_groups=False)
        with File(path, "r") as f:
            assert "Measurement" not in f

    def test_partial_read_via_handle(self, tmp_path):
        data = np.arange(200, dtype=np.float32).reshape(10, 20)
        path = str(tmp_path / "f.h5")
        write_das_file(path, data, DASMetadata(n_channels=10))
        with DASFile(path) as das:
            assert das.n_channels == 10
            assert das.n_samples == 20
            np.testing.assert_array_equal(das.data[3:5, ::2], data[3:5, ::2])

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write_das_file(str(tmp_path / "f.h5"), np.zeros(10), DASMetadata())

    def test_channel_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write_das_file(
                str(tmp_path / "f.h5"), np.zeros((4, 10)), DASMetadata(n_channels=5)
            )

    def test_opening_non_das_file_fails_cleanly(self, tmp_path):
        from repro.hdf5lite import File

        path = str(tmp_path / "not_das.h5")
        with File(path, "w") as f:
            f.attrs["hello"] = "world"
        with pytest.raises(StorageError):
            DASFile(path)
