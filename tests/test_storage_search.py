"""Tests for das_search (type-1 range and type-2 regex queries) and the CLI."""

import os

import pytest

from repro.errors import StorageError
from repro.storage.cli import main as das_search_main
from repro.storage.search import (
    das_search,
    scan_directory,
    timestamp_from_filename,
)
from repro.synthetic.cli import main as das_generate_main


class TestScanDirectory:
    def test_catalog_sorted_by_timestamp(self, das_dir):
        catalog = scan_directory(das_dir["dir"])
        assert [c.timestamp for c in catalog] == das_dir["stamps"]

    def test_name_only_scan_does_no_data_io(self, das_dir):
        from repro.utils.iostats import IOStats

        stats = IOStats()
        scan_directory(das_dir["dir"], iostats=stats)
        assert stats.opens == 0  # stamps come from file names

    def test_non_directory_rejected(self):
        with pytest.raises(StorageError):
            scan_directory("/definitely/not/a/dir")

    def test_ignores_non_h5(self, das_dir, tmp_path):
        import os

        with open(os.path.join(das_dir["dir"], "README.txt"), "w") as fh:
            fh.write("not data")
        catalog = scan_directory(das_dir["dir"])
        assert len(catalog) == 6

    def test_timestamp_from_filename(self):
        assert timestamp_from_filename("westSac_170728224510.h5") == "170728224510"
        assert timestamp_from_filename("no_stamp_here.h5") is None


class TestType1RangeQuery:
    def test_paper_example(self, das_dir):
        # das_search -s <stamp> -c 2
        hits = das_search(das_dir["dir"], start="170620100645", count=2)
        assert [h.timestamp for h in hits] == ["170620100645", "170620100745"]

    def test_start_between_files(self, das_dir):
        hits = das_search(das_dir["dir"], start="170620100600", count=1)
        assert hits[0].timestamp == "170620100645"

    def test_count_larger_than_available(self, das_dir):
        hits = das_search(das_dir["dir"], start="170620100545", count=100)
        assert len(hits) == 6

    def test_no_count_returns_all_after(self, das_dir):
        hits = das_search(das_dir["dir"], start="170620100845")
        assert len(hits) == 3

    def test_start_after_everything(self, das_dir):
        assert das_search(das_dir["dir"], start="180101000000", count=5) == []

    def test_negative_count_rejected(self, das_dir):
        with pytest.raises(StorageError):
            das_search(das_dir["dir"], start="170620100545", count=-1)

    def test_invalid_start_rejected(self, das_dir):
        with pytest.raises(StorageError):
            das_search(das_dir["dir"], start="not-a-stamp", count=1)


class TestType2RegexQuery:
    def test_paper_style_character_class(self, das_dir):
        # like the paper's: das_search -e 170728224[567]10
        hits = das_search(das_dir["dir"], pattern="1706201008.5|1706201009.5")
        assert [h.timestamp for h in hits] == ["170620100845", "170620100945"]

    def test_regex_all(self, das_dir):
        assert len(das_search(das_dir["dir"], pattern=r"\d{12}")) == 6

    def test_regex_none(self, das_dir):
        assert das_search(das_dir["dir"], pattern="190101") == []

    def test_bad_regex(self, das_dir):
        with pytest.raises(StorageError, match="bad regex"):
            das_search(das_dir["dir"], pattern="[unclosed")


class TestQueryValidation:
    def test_both_query_types_rejected(self, das_dir):
        with pytest.raises(StorageError):
            das_search(das_dir["dir"], start="170620100545", pattern="x")

    def test_neither_query_type_rejected(self, das_dir):
        with pytest.raises(StorageError):
            das_search(das_dir["dir"])

    def test_catalog_input(self, das_dir):
        catalog = scan_directory(das_dir["dir"])
        hits = das_search(catalog, start="170620100745", count=2)
        assert [h.timestamp for h in hits] == ["170620100745", "170620100845"]


class TestCLI:
    def test_range_query(self, das_dir, capsys):
        rc = das_search_main(["-d", das_dir["dir"], "-s", "170620100645", "-c", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "170620100645" in out
        assert "170620100745" in out
        assert "2 file(s)" in out

    def test_regex_query_quiet(self, das_dir, capsys):
        rc = das_search_main(["-d", das_dir["dir"], "-e", "100545", "-q"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].endswith(".h5")

    def test_merge_vca(self, das_dir, tmp_path, capsys):
        vca_path = str(tmp_path / "merged.h5")
        rc = das_search_main(
            ["-d", das_dir["dir"], "-s", "170620100545", "-c", "3", "--vca", vca_path]
        )
        assert rc == 0
        from repro.storage.vca import open_vca

        with open_vca(vca_path) as vca:
            assert vca.shape == (16, 360)

    def test_error_exit_code(self, tmp_path, capsys):
        rc = das_search_main(["-d", str(tmp_path), "-s", "x", "-c", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["vca", "rca", "junk", "directory"])
    def test_a_stamp_less_entry_that_is_no_das_file_is_skipped(
        self, tmp_path, capsys, entry
    ):
        """A VCA or RCA merged into the directory, junk bytes and a
        directory, each under a ``.h5`` name without a stamp: the search
        lists the two minutes and says nothing else."""
        directory = str(tmp_path)
        generate = ["-o", directory, "-m", "2", "-n", "8", "--fs", "10"]
        assert das_generate_main(generate) == 0
        minutes = [os.path.join(directory, n) for n in sorted(os.listdir(directory))]
        assert len(minutes) == 2
        stray = os.path.join(directory, "merged.h5")
        if entry in ("vca", "rca"):
            merge = ["-d", directory, "-e", ".", "-q", f"--{entry}", stray]
            assert das_search_main(merge) == 0
        elif entry == "junk":
            with open(stray, "wb") as fh:
                fh.write(b"junk bytes " * 16)
        else:
            os.mkdir(stray)
        capsys.readouterr()
        assert das_search_main(["-d", directory, "-e", "."]) == 0
        out, err = capsys.readouterr()
        assert all(path in out for path in minutes)
        assert "# 2 file(s)" in out
        assert err == ""
