"""``repro.utils.durable``: :func:`publish` replaces a file atomically
(keeping the previous copy when asked); :func:`append_lines` and
:func:`read_lines` are the one JSONL format — a row counts only once its
newline is written, and a complete line that is no JSON object is a
typed ``CorruptDataError`` at its byte offset."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.errors import CorruptDataError
from repro.utils.durable import append_lines, publish, read_lines


class TestDurable:
    def test_publish_replaces_and_keeps_the_previous_copy(self, tmp_path):
        path, prev = tmp_path / "doc.json", str(tmp_path / "doc.json.prev")
        publish(path, b"one", previous=prev)
        assert path.read_bytes() == b"one" and not os.path.exists(prev)
        publish(path, b"two", previous=prev)
        assert path.read_bytes() == b"two"
        assert Path(prev).read_bytes() == b"one"
        publish(path, b"three")
        assert path.read_bytes() == b"three"
        assert sorted(os.listdir(tmp_path)) == ["doc.json", "doc.json.prev"]

    def test_read_from_an_offset_sees_only_later_rows(self, tmp_path):
        path = tmp_path / "log.jsonl"
        end = append_lines(path, [{"a": 1}, {"a": 2}])
        assert read_lines(path) == ([{"a": 1}, {"a": 2}], end)
        assert append_lines(path, [{"a": 3}]) == os.path.getsize(path)
        assert read_lines(path, end) == ([{"a": 3}], os.path.getsize(path))
        assert read_lines(tmp_path / "missing.jsonl") == ([], 0)

    def test_rows_are_the_bytes_json_dumps_writes(self, tmp_path):
        path = tmp_path / "log.jsonl"
        rows = [{"name": "ü.h5", "n": 1.5}, {"k": [1, None]}]
        append_lines(path, rows)
        assert path.read_bytes() == "".join(
            json.dumps(row) + "\n" for row in rows
        ).encode()

    def test_a_torn_row_is_cut_by_the_next_append(self, tmp_path):
        path = tmp_path / "log.jsonl"
        end = append_lines(path, [{"a": 1}])
        with open(path, "ab") as handle:
            handle.write(b'{"a": 2')
        assert read_lines(path) == ([{"a": 1}], end)
        assert append_lines(path, [{"a": 3}]) == os.path.getsize(path)
        assert path.read_bytes() == b'{"a": 1}\n{"a": 3}\n'

    def test_a_log_that_is_only_a_torn_row_starts_over(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": "' + b"x" * 10_000)
        assert read_lines(path) == ([], 0)
        append_lines(path, [{"a": 1}])
        assert path.read_bytes() == b'{"a": 1}\n'

    @pytest.mark.parametrize("line", [b"[1, 2]", b"{not json", b"\xff\xfe"])
    def test_a_complete_line_that_is_no_object_is_corrupt(self, tmp_path, line):
        path = tmp_path / "log.jsonl"
        end = append_lines(path, [{"a": 1}])
        with open(path, "ab") as handle:
            handle.write(line + b"\n")
        with pytest.raises(CorruptDataError) as err:
            read_lines(path)
        assert err.value.path == str(path) and err.value.offset == end

    @pytest.mark.parametrize("row", [b'{"b": 1}', b'{"a": "x"}', b'{"a": 1, "c": 2}'])
    def test_a_row_parse_rejects_is_corrupt(self, tmp_path, row):
        path = tmp_path / "log.jsonl"
        end = append_lines(path, [{"a": 1}])
        with open(path, "ab") as handle:
            handle.write(row + b"\n")

        def parse(entry):
            (key, value), = entry.items()
            return {"a": int(value) + 0}[key]

        with pytest.raises(CorruptDataError) as err:
            read_lines(path, parse=parse)
        assert err.value.path == str(path) and err.value.offset == end
        assert read_lines(path, 0, dict.copy)[0][0] == {"a": 1}
