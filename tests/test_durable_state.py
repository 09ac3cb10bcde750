"""Durable state survives a kill mid-write and never crashes its reader.

* a torn last row of ``events.jsonl`` or ``.das_quarantine.jsonl`` is
  ignored by the service that reopens the log and cut by the next
  append; a complete row that does not parse is a typed
  ``CorruptDataError``;
* readers (``DataServer`` events, ``python -m repro.rt status``) read a
  log a writer is in the middle of appending to without touching it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.detection import DetectedEvent
from repro.errors import CorruptDataError
from repro.rt import RTService
from repro.rt.events import EventSink, SeamEvent
from repro.rt.ingest import QUARANTINE_NAME, Quarantine
from repro.rt.service import EVENTS_NAME
from repro.serve import DataServer
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata
from repro.storage.vca import create_vca

ROOT = Path(__file__).resolve().parents[1]


def _event(label: int) -> SeamEvent:
    return SeamEvent(
        event=DetectedEvent(
            label=label,
            kind="unclassified",
            channel_lo=0,
            channel_hi=3,
            t_start=5.0 * label,
            t_end=5.0 * label + 2.0,
            peak_similarity=0.9,
            n_cells=12,
            speed_channels_per_s=0.0,
        ),
        j_start=label * 100,
        j_end=label * 100 + 5,
    )


def _write_log(kind: str, directory: str) -> str:
    """A three-row log of ``kind`` written by its own writer."""
    if kind == "events":
        path = os.path.join(directory, EVENTS_NAME)
        EventSink(path).emit([_event(1), _event(2), _event(3)], record="r")
    else:
        path = os.path.join(directory, QUARANTINE_NAME)
        quarantine = Quarantine(directory)
        for minute in range(3):
            quarantine.add(f"bad_{minute}.h5", "short read", attempts=minute + 1)
    return path


def _row_lengths(path: str) -> list[int]:
    return [len(line) for line in Path(path).read_bytes().splitlines(keepends=True)]


def _last_row_length(kind: str) -> int:
    with tempfile.TemporaryDirectory() as directory:
        return _row_lengths(_write_log(kind, directory))[-1]


LOGS = ("events", "quarantine")
#: every (log, bytes kept of the last row) with the last row unterminated
TORN = [(kind, keep) for kind in LOGS for keep in range(1, _last_row_length(kind))]


def _logged(service: RTService, kind: str) -> list:
    if kind == "events":
        return [(e.j_start, e.j_end) for e in service.sink.load()]
    return sorted(service.quarantine.reasons)


# -- torn tails -------------------------------------------------------------------

@pytest.mark.parametrize("kind,keep", TORN)
def test_service_keeps_the_complete_rows_of_a_torn_log(tmp_path, kind, keep):
    path = _write_log(kind, str(tmp_path))
    last = _row_lengths(path)[-1]
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - last + keep)

    service = RTService(str(tmp_path))
    logged = _logged(service, kind)
    if kind == "events":
        assert logged == [(100, 105), (200, 205)]
        service.sink.emit([_event(4)], record="r")
    else:
        assert logged == ["bad_0.h5", "bad_1.h5"]
        service.quarantine.add("bad_3.h5", "short read", attempts=1)

    lines = Path(path).read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) == 4
    assert all(isinstance(json.loads(line), dict) for line in lines[:-1])
    assert _logged(RTService(str(tmp_path)), kind) == (
        [(100, 105), (200, 205), (400, 405)]
        if kind == "events"
        else ["bad_0.h5", "bad_1.h5", "bad_3.h5"]
    )


def _flip(path: str, target: bytes) -> int:
    """Flip one bit of the first byte of ``target`` in the middle row
    (still valid JSON when ``target`` is a key); returns the row's offset."""
    data = bytearray(Path(path).read_bytes())
    first = _row_lengths(path)[0]
    at = data.index(target, first)
    assert at < first + _row_lengths(path)[1]
    data[at] ^= 1
    Path(path).write_bytes(bytes(data))
    return first


#: (log, what to damage in its middle row): the opening brace, or a key
DAMAGE = [
    ("events", b"{"),
    ("events", b"j_start"),
    ("events", b"label"),
    ("quarantine", b"{"),
    ("quarantine", b"name"),
]


@pytest.mark.parametrize("kind,target", DAMAGE)
def test_a_middle_row_that_does_not_parse_is_typed_corruption(tmp_path, kind, target):
    path = _write_log(kind, str(tmp_path))
    offset = _flip(path, target)
    with pytest.raises(CorruptDataError) as err:
        RTService(str(tmp_path))
    assert err.value.path == path and err.value.offset == offset


def test_two_writers_on_one_log_keep_each_others_rows(tmp_path):
    path = _write_log("quarantine", str(tmp_path))
    with open(path, "ab") as handle:
        handle.write(b'{"name": "torn')
    first, second = Quarantine(str(tmp_path)), Quarantine(str(tmp_path))
    first.add("a.h5", "io", 1)
    second.add("b.h5", "io", 1)
    first.add("c.h5", "io", 1)
    assert sorted(Quarantine(str(tmp_path)).reasons) == [
        "a.h5", "b.h5", "bad_0.h5", "bad_1.h5", "bad_2.h5", "c.h5"
    ]


def test_concurrent_adds_behind_a_torn_row_all_land(tmp_path):
    path = _write_log("quarantine", str(tmp_path))
    with open(path, "ab") as handle:
        handle.write(b'{"name": "torn')
    quarantine = Quarantine(str(tmp_path))
    threads = [
        threading.Thread(target=quarantine.add, args=(f"t{i}.h5", "io", 1))
        for i in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = [f"bad_{m}.h5" for m in range(3)] + [f"t{i}.h5" for i in range(8)]
    assert sorted(Quarantine(str(tmp_path)).reasons) == sorted(expected)


# -- readers of a live log --------------------------------------------------------

def _status(spool: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.rt", "status", spool],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def _one_minute_archive(spool: str) -> str:
    minute = os.path.join(spool, das_filename("170620100545"))
    write_das_file(
        minute,
        np.zeros((4, 600), dtype=np.float32),
        DASMetadata(sampling_frequency=10.0, spatial_resolution=2.0,
                    timestamp="170620100545", n_channels=4),
        channel_groups=False,
    )
    return create_vca(os.path.join(spool, "arch.h5"), [minute])


def test_readers_of_a_log_in_mid_append_see_its_complete_rows(tmp_path):
    spool = str(tmp_path)
    log = _write_log("events", spool)
    # the writer has put down half of its fourth row
    with open(log, "ab") as handle:
        handle.write(json.dumps(_event(4).to_json()).encode()[:40])
    before = Path(log).read_bytes()

    vca = _one_minute_archive(spool)
    with DataServer(vca, events_path=log) as server:
        hits = server.session("viewer").events(0, 600)
    assert [ev.event.label for ev in hits] == [1, 2, 3]

    proc = _status(spool)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["events"] == 3
    assert Path(log).read_bytes() == before


@pytest.mark.parametrize("target", [b"{", b"label"])
def test_status_names_a_corrupt_row_and_exits_2(tmp_path, target):
    log = _write_log("events", str(tmp_path))
    offset = _flip(log, target)
    proc = _status(str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("python -m repro.rt: error: ") and log in proc.stderr
    assert f"offset {offset}" in proc.stderr
    assert "Traceback" not in proc.stderr


HEALTH = {
    "updated_unix": 0.0,
    "shards": {
        "0": {"state": "alive", "ingested": 3, "events": 1, "restarts": 0},
        "1": {"state": "alive", "ingested": 2, "events": 0, "restarts": 1},
    },
}


@pytest.mark.parametrize("damage", ["torn", "no-state"])
def test_status_names_a_malformed_health_file_and_exits_2(tmp_path, capsys, damage):
    from repro.rt.cli import main
    from repro.rt.supervisor import HEALTH_NAME

    _write_log("events", str(tmp_path))
    path = tmp_path / HEALTH_NAME
    text = json.dumps(HEALTH, indent=2)
    assert main(["status", str(tmp_path)]) == 0
    capsys.readouterr()
    path.write_text(text)
    assert main(["status", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["shards"] == HEALTH["shards"]
    if damage == "torn":
        path.write_text(text[: len(text) // 2])
    else:
        health = json.loads(text)
        del health["shards"]["1"]["state"]
        path.write_text(json.dumps(health))
    assert main(["status", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("python -m repro.rt: error: ") and str(path) in err
    assert "malformed health file" in err


def test_served_events_name_a_corrupt_row(tmp_path):
    log = _write_log("events", str(tmp_path))
    offset = _flip(log, b"j_start")
    vca = _one_minute_archive(str(tmp_path))
    with DataServer(vca, events_path=log) as server:
        with pytest.raises(CorruptDataError) as err:
            server.session("viewer").events(0, 600)
    assert err.value.path == log and err.value.offset == offset
