"""Tests for VCA, RCA, and LAV — the merge/subset machinery of DASS."""

import os

import numpy as np
import pytest

from repro.errors import ConfigError, StorageError
from repro.hdf5lite import File
from repro.storage.chunks import SourceView, as_source
from repro.storage.rca import RCA_DATASET, create_rca
from repro.storage.search import scan_directory
from repro.storage.vca import create_vca, open_vca
from repro.utils.iostats import IOStats


class TestVCA:
    def test_merged_content_matches_concatenation(self, das_dir, tmp_path):
        vca_path = str(tmp_path / "v.h5")
        create_vca(vca_path, das_dir["paths"])
        with open_vca(vca_path) as vca:
            np.testing.assert_array_equal(vca.dataset.read(), das_dir["full"])

    def test_shape_and_metadata(self, das_dir, tmp_path):
        vca_path = str(tmp_path / "v.h5")
        create_vca(vca_path, das_dir["paths"])
        with open_vca(vca_path) as vca:
            assert vca.shape == (16, 720)
            assert vca.metadata.sampling_frequency == 2.0
            assert vca.metadata.timestamp == das_dir["stamps"][0]
        with File(vca_path, "r") as f:
            assert f.attrs["VCA source timestamps"] == das_dir["stamps"]

    def test_construction_reads_no_array_data(self, das_dir, tmp_path):
        stats = IOStats()
        create_vca(str(tmp_path / "v.h5"), das_dir["paths"], iostats=stats)
        # Each file contributes its header + metadata footer (2 reads);
        # array data (120*16*4 = 7680 B/file) is never touched.
        per_file_data = 16 * 120 * 4
        assert stats.bytes_read < len(das_dir["paths"]) * per_file_data / 2

    def test_partial_read_crosses_file_boundary(self, das_dir, tmp_path):
        vca_path = str(tmp_path / "v.h5")
        create_vca(vca_path, das_dir["paths"])
        with open_vca(vca_path) as vca:
            got = vca.dataset[5:9, 110:130]
        np.testing.assert_array_equal(got, das_dir["full"][5:9, 110:130])

    def test_reading_one_minute_opens_one_source(self, das_dir, tmp_path):
        vca_path = str(tmp_path / "v.h5")
        create_vca(vca_path, das_dir["paths"])
        stats = IOStats()
        with open_vca(vca_path, iostats=stats) as vca:
            opens_before = stats.opens
            vca.dataset[:, 130:200]  # entirely inside file 1
            assert stats.opens - opens_before == 1

    def test_source_paths_absolute(self, das_dir, tmp_path):
        vca_path = str(tmp_path / "v.h5")
        create_vca(vca_path, das_dir["paths"])
        with open_vca(vca_path) as vca:
            for path, orig in zip(vca.source_paths(), das_dir["paths"]):
                assert os.path.isabs(path)
                assert os.path.samefile(path, orig)

    def test_same_file_in_two_vcas_no_copy(self, das_dir, tmp_path):
        """Table I: VCA has no duplication across groups — the same minute
        can be merged into two different VCAs and both read it in place."""
        a = str(tmp_path / "a.h5")
        b = str(tmp_path / "b.h5")
        create_vca(a, das_dir["paths"][:3])
        create_vca(b, das_dir["paths"][1:4])
        source_size = os.path.getsize(das_dir["paths"][1])
        assert os.path.getsize(a) < source_size / 4
        assert os.path.getsize(b) < source_size / 4
        with open_vca(a) as va, open_vca(b) as vb:
            np.testing.assert_array_equal(
                va.dataset[:, 120:240], vb.dataset[:, 0:120]
            )

    def test_assume_uniform_fast_path(self, das_dir, tmp_path):
        """The name-catalog construction path: only the first footer is
        read, yet the merged content is identical."""
        stats = IOStats()
        catalog = scan_directory(das_dir["dir"])
        vca_path = str(tmp_path / "v.h5")
        create_vca(vca_path, catalog, assume_uniform=True, iostats=stats)
        assert stats.opens == 2  # first source + the output file
        with open_vca(vca_path) as vca:
            np.testing.assert_array_equal(vca.dataset.read(), das_dir["full"])
        with File(vca_path, "r") as f:
            assert f.attrs["VCA source timestamps"] == das_dir["stamps"]

    def test_catalog_entries_accepted(self, das_dir, tmp_path):
        catalog = scan_directory(das_dir["dir"])
        vca_path = create_vca(str(tmp_path / "v.h5"), catalog[:2])
        with open_vca(vca_path) as vca:
            assert vca.shape == (16, 240)

    def test_zero_files_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            create_vca(str(tmp_path / "v.h5"), [])

    def test_channel_mismatch_rejected(self, das_dir, tmp_path):
        from repro.storage.dasfile import write_das_file
        from repro.storage.metadata import DASMetadata

        odd = str(tmp_path / "odd.h5")
        write_das_file(
            odd, np.zeros((7, 120), dtype=np.float32),
            DASMetadata(sampling_frequency=2.0, timestamp="170620103000", n_channels=7),
        )
        with pytest.raises(StorageError, match="channel count"):
            create_vca(str(tmp_path / "v.h5"), das_dir["paths"][:1] + [odd])

    def test_fs_mismatch_rejected(self, das_dir, tmp_path):
        from repro.storage.dasfile import write_das_file
        from repro.storage.metadata import DASMetadata

        odd = str(tmp_path / "odd.h5")
        write_das_file(
            odd, np.zeros((16, 120), dtype=np.float32),
            DASMetadata(sampling_frequency=99.0, timestamp="170620103000", n_channels=16),
        )
        with pytest.raises(StorageError, match="sampling frequency"):
            create_vca(str(tmp_path / "v.h5"), das_dir["paths"][:1] + [odd])

    def test_open_non_vca_rejected(self, das_dir):
        with pytest.raises(StorageError):
            open_vca(das_dir["paths"][0])


class TestRCA:
    def test_content_matches_concatenation(self, das_dir, tmp_path):
        rca_path = str(tmp_path / "r.h5")
        create_rca(rca_path, das_dir["paths"])
        with File(rca_path, "r") as f:
            np.testing.assert_array_equal(
                f.dataset(RCA_DATASET).read(), das_dir["full"]
            )

    def test_doubles_storage(self, das_dir, tmp_path):
        """Table I: RCA needs ~100% extra space (a physical copy)."""
        rca_path = str(tmp_path / "r.h5")
        create_rca(rca_path, das_dir["paths"])
        total_source_data = sum(b.nbytes for b in das_dir["blocks"])
        assert os.path.getsize(rca_path) >= total_source_data

    def test_construction_reads_all_data(self, das_dir, tmp_path):
        """Table I: RCA construction has high overhead — it moves every
        byte (reads all sources and writes them again)."""
        stats = IOStats()
        create_rca(str(tmp_path / "r.h5"), das_dir["paths"], iostats=stats)
        total = sum(b.nbytes for b in das_dir["blocks"])
        assert stats.bytes_read >= total
        assert stats.bytes_written >= total

    def test_vca_construction_much_cheaper_than_rca(self, das_dir, tmp_path):
        """The Fig. 6 contrast, measured in bytes moved rather than
        seconds (single-machine wall time is noise at this scale)."""
        vca_stats = IOStats()
        rca_stats = IOStats()
        create_vca(str(tmp_path / "v.h5"), das_dir["paths"], iostats=vca_stats)
        create_rca(str(tmp_path / "r.h5"), das_dir["paths"], iostats=rca_stats)
        moved_vca = vca_stats.bytes_read + vca_stats.bytes_written
        moved_rca = rca_stats.bytes_read + rca_stats.bytes_written
        assert moved_rca > 10 * moved_vca

    def test_zero_files_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            create_rca(str(tmp_path / "r.h5"), [])

    def test_fs_mismatch_rejected(self, das_dir, tmp_path):
        """Mixed sampling rates are refused as ``create_vca`` refuses them,
        before any output is written."""
        from repro.storage.dasfile import write_das_file
        from repro.storage.metadata import DASMetadata

        odd = str(tmp_path / "odd.h5")
        write_das_file(
            odd, np.zeros((16, 120), dtype=np.float32),
            DASMetadata(sampling_frequency=4.0, timestamp="170620103000", n_channels=16),
        )
        rca_path = str(tmp_path / "r.h5")
        with pytest.raises(StorageError, match="sampling frequency"):
            create_rca(rca_path, das_dir["paths"][:1] + [odd])
        assert not os.path.exists(rca_path)

    def test_metadata_preserved(self, das_dir, tmp_path):
        rca_path = str(tmp_path / "r.h5")
        create_rca(rca_path, das_dir["paths"])
        with File(rca_path, "r") as f:
            assert f.attrs["TimeStamp(yymmddhhmmss)"] == das_dir["stamps"][0]
            assert f.attrs["RCA source count"] == 6


class TestLAV:
    """The paper's logical array view is :class:`SourceView` over an open
    VCA; a plain slice of the VCA dataset is the channel-strided read."""

    @pytest.fixture
    def handle(self, das_dir, tmp_path):
        vca_path = str(tmp_path / "v.h5")
        create_vca(vca_path, das_dir["paths"])
        with open_vca(vca_path) as vca:
            yield vca, das_dir["full"]

    def test_channel_subset(self, handle):
        vca, full = handle
        view = SourceView(vca, channel_lo=4, channel_hi=10)
        assert (view.n_channels, view.n_samples) == (6, 720)
        np.testing.assert_array_equal(view.read(0, view.n_samples), full[4:10])

    def test_time_subset(self, handle):
        vca, full = handle
        view = SourceView(vca, t0=100, t1=300)
        np.testing.assert_array_equal(view.read(0, 200), full[:, 100:300])

    def test_composed_views(self, handle):
        vca, full = handle
        view = SourceView(SourceView(vca, channel_lo=2, channel_hi=14), 1, 5)
        assert view.channel_lo == 3  # one view of the handle, not two layers
        np.testing.assert_array_equal(view.read(0, view.n_samples), full[3:7])

    def test_strided_view(self, handle):
        vca, full = handle
        np.testing.assert_array_equal(vca.dataset[::4], full[::4])

    def test_channel_and_time_ranges(self, handle):
        vca, full = handle
        view = SourceView(vca, channel_lo=4, channel_hi=12, t0=10, t1=100, step=3)
        assert (view.channel_lo, view.n_channels) == (4, 8)
        assert (view.t0, view.step, view.n_samples) == (10, 3, 30)
        assert view.fs == vca.fs / 3
        np.testing.assert_array_equal(
            view.read(0, view.n_samples), full[4:12, 10:100:3]
        )
        # An empty row range keeps the strided width every source returns.
        assert view.read_strided(1, 1, 0, 10, 2).shape == (0, 5)
        assert vca.read_strided(1, 1, 0, 10, 2).shape == (0, 5)
        inner = as_source(np.zeros((4, 10)))
        assert SourceView(inner).read_strided(1, 1, 0, 10, 2).shape == (0, 5)

    def test_escaping_selection_rejected(self, handle):
        vca, _ = handle
        view = SourceView(vca, channel_lo=0, channel_hi=4)
        with pytest.raises(ConfigError):
            view.read_rows(10, 11, 0, 1)
        with pytest.raises(ConfigError):
            SourceView(vca, channel_lo=0, channel_hi=20)

    def test_non_2d_rejected(self, tmp_path):
        with File(str(tmp_path / "x.h5"), "w") as f:
            ds = f.create_dataset("d", data=np.zeros(5))
            with pytest.raises(ConfigError):
                as_source(ds)
