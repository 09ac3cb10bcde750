"""Failure injection and integrity checking for hdf5lite files.

A long-running DAS acquisition produces millions of files; some arrive
damaged.  These tests corrupt files in targeted ways and check that (a)
readers fail loudly with FormatError rather than returning garbage, and
(b) the `verify` tool pinpoints the damage.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import FormatError
from repro.hdf5lite import File, VirtualSource, pyramid_levels, pyramid_problems
from repro.hdf5lite.binary import HEADER_SIZE, Header
from repro.hdf5lite.inspect import describe, verify

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def good_file(tmp_path):
    path = str(tmp_path / "good.h5")
    with File(path, "w") as f:
        f.attrs["site"] = "test"
        f.create_dataset("a", data=np.arange(24.0).reshape(4, 6))
        f.create_dataset("chunky", data=np.arange(64.0).reshape(8, 8), chunks=(3, 3))
        f.create_group("g").attrs["x"] = 1
    return path


class TestDescribe:
    def test_lists_everything(self, good_file):
        with File(good_file, "r") as f:
            text = describe(f)
        assert "a  dataset (4, 6)" in text
        assert "[contiguous]" in text
        assert "chunks=(3, 3)" in text
        assert "g/" in text

    def test_attrs_flag(self, good_file):
        with File(good_file, "r") as f:
            text = describe(f, attrs=True)
        assert "@ site = 'test'" in text
        assert "@ x = 1" in text


class TestVerifyClean:
    def test_no_problems(self, good_file):
        with File(good_file, "r") as f:
            assert verify(f) == []

    def test_virtual_ok(self, tmp_path, good_file):
        vpath = str(tmp_path / "v.h5")
        with File(vpath, "w") as f:
            f.create_dataset(
                "v",
                shape=(4, 6),
                dtype=np.float64,
                virtual_sources=[
                    VirtualSource(good_file, "/a", (0, 0), (0, 0), (4, 6))
                ],
            )
        with File(vpath, "r") as f:
            assert verify(f) == []


class TestCorruption:
    def test_truncated_data_region(self, good_file):
        size = os.path.getsize(good_file)
        with open(good_file, "r+b") as fh:
            fh.truncate(size - 40)
        # Header still points past the end -> opening fails loudly.
        with pytest.raises(FormatError):
            File(good_file, "r")

    def test_corrupt_magic(self, good_file):
        with open(good_file, "r+b") as fh:
            fh.write(b"NOTHDF5!")
        with pytest.raises(FormatError, match="magic"):
            File(good_file, "r")

    def test_corrupt_metadata_json(self, good_file):
        with File(good_file, "r") as f:
            meta_offset = f._backend.read_header().meta_offset
        with open(good_file, "r+b") as fh:
            fh.seek(meta_offset)
            fh.write(b"{]garbage")
        with pytest.raises(FormatError, match="metadata"):
            File(good_file, "r")

    def test_unsupported_version(self, good_file):
        with File(good_file, "r") as f:
            header = f._backend.read_header()
        with open(good_file, "r+b") as fh:
            fh.write(Header(99, header.meta_offset, header.meta_len).pack())
        # Header.pack writes version as given:
        with pytest.raises(FormatError, match="version"):
            File(good_file, "r")

    def test_dataset_offset_beyond_file_detected(self, good_file):
        """Rewrite a dataset's offset in the footer; verify() flags it."""
        with File(good_file, "r") as f:
            header = f._backend.read_header()
            raw = f._backend.read_at(header.meta_offset, header.meta_len)
        meta = json.loads(raw)
        meta["datasets"]["a"]["offset"] = 10**9
        payload = json.dumps(meta).encode()
        with open(good_file, "r+b") as fh:
            fh.seek(header.meta_offset)
            fh.write(payload)
            fh.truncate(header.meta_offset + len(payload))
            fh.seek(0)
            fh.write(Header(1, header.meta_offset, len(payload)).pack())
        with File(good_file, "r") as f:
            problems = verify(f)
            assert any("exceeds the data region" in p.message for p in problems)
            with pytest.raises(FormatError):
                f.dataset("a").read()

    def test_missing_chunk_detected(self, good_file):
        with File(good_file, "r") as f:
            header = f._backend.read_header()
            raw = f._backend.read_at(header.meta_offset, header.meta_len)
        meta = json.loads(raw)
        del meta["datasets"]["chunky"]["chunk_index"]["0,0"]
        payload = json.dumps(meta).encode()
        with open(good_file, "r+b") as fh:
            fh.seek(header.meta_offset)
            fh.write(payload)
            fh.truncate(header.meta_offset + len(payload))
            fh.seek(0)
            fh.write(Header(1, header.meta_offset, len(payload)).pack())
        with File(good_file, "r") as f:
            problems = verify(f)
            assert any("chunk index" in p.message for p in problems)
            with pytest.raises(FormatError, match="missing chunk"):
                f.dataset("chunky").read()

    def test_missing_virtual_source_detected(self, tmp_path, good_file):
        vpath = str(tmp_path / "v.h5")
        with File(vpath, "w") as f:
            f.create_dataset(
                "v",
                shape=(4, 6),
                dtype=np.float64,
                virtual_sources=[
                    VirtualSource(good_file, "/a", (0, 0), (0, 0), (4, 6))
                ],
            )
        os.remove(good_file)
        with File(vpath, "r") as f:
            problems = verify(f)
            assert any("missing source file" in p.message for p in problems)
            with pytest.raises(FileNotFoundError):
                f.dataset("v").read()

    def test_source_shape_shrunk_detected(self, tmp_path):
        src = str(tmp_path / "src.h5")
        with File(src, "w") as f:
            f.create_dataset("d", data=np.zeros((8, 8)))
        vpath = str(tmp_path / "v.h5")
        with File(vpath, "w") as f:
            f.create_dataset(
                "v",
                shape=(8, 8),
                dtype=np.float64,
                virtual_sources=[VirtualSource(src, "/d", (0, 0), (0, 0), (8, 8))],
            )
        # Rewrite the source smaller than the mapping expects.
        with File(src, "w") as f:
            f.create_dataset("d", data=np.zeros((2, 2)))
        with File(vpath, "r") as f:
            problems = verify(f)
            assert any("exceeds its shape" in p.message for p in problems)

    def test_zero_byte_file(self, tmp_path):
        path = str(tmp_path / "empty.h5")
        open(path, "wb").close()
        with pytest.raises(FormatError):
            File(path, "r")

    @pytest.mark.parametrize("key", ["shape", "dtype", "layout"])
    def test_a_dataset_node_without_a_required_key(self, tmp_path, key):
        """A footer that parses but whose dataset node lacks ``shape``,
        ``dtype`` or ``layout`` is a ``FormatError`` where the node is
        reached, so ``das_inspect --verify`` reports it as one error line
        and exits 2 instead of printing a ``KeyError`` traceback."""
        path = str(tmp_path / "one.h5")
        with File(path, "w") as f:
            f.create_dataset("d", data=np.arange(64.0))
        with open(path, "rb") as fh:
            raw = fh.read()
        header = Header.unpack(raw)
        meta = json.loads(raw[header.meta_offset :])
        del meta["datasets"]["d"][key]
        footer = json.dumps(meta).encode().ljust(len(raw) - header.meta_offset)
        with open(path, "wb") as fh:
            fh.write(raw[: header.meta_offset] + footer)
        with File(path, "r") as f:
            with pytest.raises(FormatError, match=f"has no {key}"):
                f.dataset("d")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro.hdf5lite.cli", "--verify", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            f"das_inspect: {path}: error: corrupt metadata footer: "
            f"dataset '/d' has no {key}"
        ]
        assert "Traceback" not in done.stdout + done.stderr


class TestMalformedPyramid:
    """A pyramid attribute that does not parse is a typed, reported
    problem: ``verify`` and ``pyramid_problems`` list it, ``pyramid_levels``
    (what ``DataServer`` opens an archive through) raises ``FormatError``
    naming the dataset — never a bare ``ValueError``."""

    @pytest.mark.parametrize(
        "attr, value",
        [
            ("repro:pyramid factor", "four"),
            ("repro:pyramid level", "one"),
            ("repro:pyramid base samples", [1, 2]),
            ("repro:pyramid fs", "fast"),
        ],
    )
    def test_unparseable_attribute_is_reported_not_raised(self, tmp_path, attr, value):
        path = str(tmp_path / "p.h5")
        with File(path, "w") as f:
            f.create_dataset("DataCT", data=np.zeros((2, 16), dtype=np.float32))
            level = f.create_dataset(
                "pyramid/level1", data=np.zeros((2, 4)), chunks=(2, 4)
            )
            level.attrs.update_many(
                {
                    "repro:pyramid level": 1,
                    "repro:pyramid factor": 4,
                    "repro:pyramid base samples": 16,
                    "repro:pyramid of": "/DataCT",
                    "repro:pyramid fs": 1.0,
                }
            )
            level.attrs[attr] = value
        with File(path, "r") as f:
            problems = verify(f)
            assert [p.path for p in problems] == ["/pyramid/level1"]
            assert "malformed pyramid attribute" in problems[0].message
            assert pyramid_problems(f) == [
                (problems[0].path, problems[0].message)
            ]
            with pytest.raises(FormatError, match="/pyramid/level1"):
                pyramid_levels(f)
