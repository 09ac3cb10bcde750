"""An hdf5lite file is written once and published whole.

* **Crash points.**  Each writer — ``write_das_file``, ``create_vca``,
  ``create_rca``, ``build_pyramid`` — runs in a forked child that calls
  ``os._exit`` at its k-th durable effect: the k-th
  ``FileBackend.write_at`` or the ``durable.promote`` that publishes the
  file.  After the kill the target path reads exactly as before (or is
  absent, for a new file) — never a torn file, never ``FormatError`` — and
  re-running the writer overwrites the leftover ``.tmp`` and publishes
  exactly the file an uninterrupted run publishes.  The suite runs the
  first, middle and last write and the promote; ``pytest
  --every-crash-point`` runs every one (``scripts/ci.sh`` does).
* **fsync before rename.**  ``durable.publish`` and a ``File("w")`` close
  fsync the tmp sibling's inode before ``os.replace`` puts it under the
  final name: a rename that can reach the disk before the bytes it names
  would publish unwritten data after a power cut.
* **fsync before an append returns.**  ``durable.append_lines`` writes and
  flushes its rows, then fsyncs the log, before it returns the log's new
  length: a row the caller counts as logged is on disk.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.hdf5lite import File
from repro.hdf5lite.binary import FileBackend
from repro.hdf5lite.inspect import verify
from repro.serve import PyramidConfig, build_pyramid
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.storage.rca import create_rca
from repro.storage.vca import create_vca
from repro.utils import durable

STAMPS = [timestamp_add_seconds("170620100545", 60 * i) for i in range(3)]
KILLED = 9


def _minute(i, version=0):
    rng = np.random.default_rng(100 * version + i)
    return rng.normal(size=(8, 1200)).astype(np.float32)


def _write_minute(root, i, version=0):
    return write_das_file(
        os.path.join(root, das_filename(STAMPS[i])),
        _minute(i, version),
        DASMetadata(sampling_frequency=20.0, spatial_resolution=2.0,
                    timestamp=STAMPS[i], n_channels=8),
        channel_groups=False, chunks=(8, 256), codec="transpose-zlib",
        checksum=True,
    )


def _minutes(root):
    return [os.path.join(root, das_filename(stamp)) for stamp in STAMPS]


# writer -> (what exists before it runs, the run, the path it publishes).
# write_das_file and create_vca replace an older file; create_rca creates
# a new one; build_pyramid re-publishes the archive.
def _prepare_minutes(root):
    for i in range(3):
        _write_minute(root, i)


def _prepare_rewrite(root):
    _prepare_minutes(root)
    _write_minute(root, 0, version=1)


def _prepare_vca(root):
    _prepare_minutes(root)
    create_vca(os.path.join(root, "arch.h5"), _minutes(root)[:2])


def _prepare_pyramid(root):
    _prepare_minutes(root)
    create_vca(os.path.join(root, "arch.h5"), _minutes(root))


WRITERS = {
    "write_das_file": (
        _prepare_rewrite,
        lambda root: _write_minute(root, 0),
        lambda root: _minutes(root)[0],
    ),
    "create_vca": (
        _prepare_vca,
        lambda root: create_vca(os.path.join(root, "arch.h5"), _minutes(root)),
        lambda root: os.path.join(root, "arch.h5"),
    ),
    "create_rca": (
        _prepare_minutes,
        lambda root: create_rca(os.path.join(root, "rca.h5"), _minutes(root)),
        lambda root: os.path.join(root, "rca.h5"),
    ),
    "build_pyramid": (
        _prepare_pyramid,
        lambda root: build_pyramid(
            os.path.join(root, "arch.h5"), PyramidConfig(factor=4, min_samples=32)
        ),
        lambda root: os.path.join(root, "arch.h5"),
    ),
}


def _state(path):
    """What a reader of ``path`` finds: ``None`` when there is no file,
    else its bytes' digest (after checking that it opens and verifies)."""
    if not os.path.exists(path):
        return None
    with File(path, "r") as f:
        assert verify(f) == []
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _count_writes(run, root):
    """Run the writer once, counting its ``write_at`` calls."""
    calls = []
    write_at = FileBackend.write_at

    def counting(self, offset, data):
        calls.append(offset)
        write_at(self, offset, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FileBackend, "write_at", counting)
        run(root)
    return len(calls)


def _run_killed_at(run, root, kill_at):
    """Run the writer in a forked child that exits at its ``kill_at``-th
    durable effect (write_at calls, then the promote); its exit status."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        status = 0
        try:
            effects = [0]
            write_at, promote = FileBackend.write_at, durable.promote

            def effect():
                effects[0] += 1
                if effects[0] == kill_at:
                    os._exit(KILLED)

            def dying_write_at(self, offset, data):
                effect()
                write_at(self, offset, data)

            def dying_promote(tmp, path):
                effect()
                promote(tmp, path)

            FileBackend.write_at = dying_write_at
            durable.promote = dying_promote
            run(root)
        except BaseException:
            status = 3
        os._exit(status)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def _kill_points(n_writes, every):
    promote = n_writes + 1
    if every:
        return list(range(1, promote + 1))
    return sorted({1, (n_writes + 1) // 2, n_writes, promote})


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_killed_writer_leaves_the_path_as_before(tmp_path, request, writer):
    prepare, run, target = WRITERS[writer]
    reference = tmp_path / "reference"
    reference.mkdir()
    prepare(str(reference))
    before = _state(target(str(reference)))
    n_writes = _count_writes(run, str(reference))
    after = _state(target(str(reference)))
    assert n_writes >= 3 and after is not None and after != before

    every = request.config.getoption("--every-crash-point")
    for kill_at in _kill_points(n_writes, every):
        root = tmp_path / f"kill{kill_at}"
        root.mkdir()
        prepare(str(root))
        path = target(str(root))
        assert _run_killed_at(run, str(root), kill_at) == KILLED, kill_at
        assert _state(path) == before, (writer, kill_at)
        assert os.path.exists(path + ".tmp")
        # the restart overwrites the leftover and publishes what an
        # uninterrupted run does
        run(str(root))
        assert _state(path) == after, (writer, kill_at)
        assert not os.path.exists(path + ".tmp")


def test_the_first_publish_of_a_new_file_is_absent_until_promoted(tmp_path):
    _prepare_minutes(str(tmp_path))
    rca = os.path.join(str(tmp_path), "rca.h5")
    run = WRITERS["create_rca"][1]
    assert _run_killed_at(run, str(tmp_path), 1) == KILLED
    assert _state(rca) is None
    assert sorted(os.listdir(tmp_path)) == sorted(
        [os.path.basename(p) for p in _minutes(str(tmp_path))] + ["rca.h5.tmp"]
    )


# ---------------------------------------------------------------------------
# fsync before rename
# ---------------------------------------------------------------------------
@pytest.fixture
def os_calls(monkeypatch):
    """Record ``os.fsync`` (by the inode it syncs and the size that inode
    has when it is synced) and ``os.replace`` (by the inode it moves) in
    call order."""
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync", st.st_ino, st.st_size))
        fsync(fd)

    def recording_replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino, os.fspath(src), os.fspath(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return calls


def _assert_fsynced_before_published(calls, path):
    tmp = path + ".tmp"
    (publish,) = [
        i for i, c in enumerate(calls) if c[0] == "replace" and c[2:] == (tmp, path)
    ]
    ino = calls[publish][1]
    synced = [i for i, c in enumerate(calls) if c[:2] == ("fsync", ino)]
    assert synced, f"{tmp} was renamed onto {path} without an fsync"
    renames = [i for i, c in enumerate(calls) if c[0] == "replace"]
    assert synced[0] < min(renames), calls


@pytest.mark.parametrize("previous", [False, True])
def test_publish_fsyncs_the_tmp_before_any_rename(tmp_path, os_calls, previous):
    path = str(tmp_path / "state.json")
    durable.publish(path, b"old")
    del os_calls[:]
    durable.publish(path, b"new", previous=path + ".prev" if previous else None)
    _assert_fsynced_before_published(os_calls, path)
    assert len(os_calls) == 2 + previous
    with open(path, "rb") as fh:
        assert fh.read() == b"new"


def test_a_file_close_fsyncs_the_tmp_before_the_rename(tmp_path, os_calls):
    path = str(tmp_path / "f.h5")
    with File(path, "w") as f:
        f.create_dataset("d", data=np.arange(16.0))
        assert os_calls == []  # nothing is published before close
    _assert_fsynced_before_published(os_calls, path)
    assert [c[0] for c in os_calls] == ["fsync", "replace"]


def test_append_lines_fsyncs_what_it_wrote_before_it_returns(tmp_path, os_calls):
    path = str(tmp_path / "events.jsonl")
    first = durable.append_lines(path, [{"kind": "a"}])
    with open(path, "ab") as fh:
        fh.write(b'{"kind": "to')  # a torn row the next append cuts
    end = durable.append_lines(path, [{"kind": "b"}, {"kind": "c"}])
    ino = os.stat(path).st_ino
    # The size at each fsync is what the append returned: the rows were
    # written and flushed before the sync, and the sync came before the
    # return.
    assert os_calls == [("fsync", ino, first), ("fsync", ino, end)]
    assert end == os.path.getsize(path)
