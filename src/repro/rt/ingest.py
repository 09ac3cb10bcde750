"""Spool-directory ingest: complete-file detection and quarantine.

An acquisition system writes per-minute files *in place*, so a file
that merely exists in the spool is not necessarily finished.  The
watcher admits a file only once its size has held still across
consecutive scans and its mtime has settled; files that still fail to
parse are retried a bounded number of times and then quarantined — the
service records why and keeps going, because a monitoring service that
crashes on one truncated file misses every event after it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.durable import append_lines, read_lines

QUARANTINE_NAME = ".das_quarantine.jsonl"


def is_acquisition_file(name: str) -> bool:
    """Whether a spool entry's name is an acquisition file the service
    ingests: ``*.h5``, and not a dot-file (a writer's temporary)."""
    return name.endswith(".h5") and not name.startswith(".")


@dataclass
class PendingFile:
    """A spool file seen but not yet admitted as complete."""

    size: int
    mtime: float
    stable_polls: int


class SpoolWatcher:
    """Detects *complete* new DAS files in a spool directory.

    A file is ready when its size has been identical for
    ``stable_polls`` consecutive :meth:`scan` calls **and** its mtime is
    at least ``settle_seconds`` in the past — the two heuristics cover
    both slow writers (size still growing) and fast writers caught
    mid-``close``.  Each path is announced exactly once; use
    :meth:`mark_known` on resume so already-processed files stay silent.
    """

    def __init__(
        self,
        directory: str,
        settle_seconds: float = 1.0,
        stable_polls: int = 2,
        clock=time.time,
    ):
        if stable_polls < 1:
            raise ConfigError("stable_polls must be >= 1")
        if settle_seconds < 0:
            raise ConfigError("settle_seconds must be >= 0")
        self.directory = os.fspath(directory)
        self.settle_seconds = float(settle_seconds)
        self.stable_polls = int(stable_polls)
        self.clock = clock
        self._pending: dict[str, PendingFile] = {}
        self._announced: set[str] = set()

    def mark_known(self, paths) -> None:
        """Suppress announcements for already-processed paths (resume)."""
        self._announced.update(os.fspath(p) for p in paths)

    @property
    def pending(self) -> int:
        """Files seen but not yet admitted as complete."""
        return len(self._pending)

    def scan(self) -> list[str]:
        """One poll of the spool; returns newly-complete paths in
        filename (= acquisition timestamp) order."""
        try:
            names = sorted(os.listdir(self.directory))
        except FileNotFoundError:
            return []
        now = self.clock()
        ready: list[str] = []
        seen_paths: set[str] = set()
        for name in names:
            if not is_acquisition_file(name):
                continue
            path = os.path.join(self.directory, name)
            if path in self._announced:
                continue
            seen_paths.add(path)
            try:
                st = os.stat(path)
            except OSError:
                self._pending.pop(path, None)
                continue
            rec = self._pending.get(path)
            if rec is None or rec.size != st.st_size or rec.mtime != st.st_mtime:
                self._pending[path] = PendingFile(st.st_size, st.st_mtime, 1)
                rec = self._pending[path]
            else:
                rec.stable_polls += 1
            if (
                rec.stable_polls >= self.stable_polls
                and now - st.st_mtime >= self.settle_seconds
            ):
                ready.append(path)
        for path in list(self._pending):
            if path not in seen_paths:
                del self._pending[path]  # vanished while pending
        for path in ready:
            self._announced.add(path)
            self._pending.pop(path, None)
        return ready


def _quarantine_row(row: dict) -> tuple[str, str, dict | None]:
    return row["name"], row.get("reason", ""), row.get("error")


class Quarantine:
    """Append-only record of files the service gave up on.

    Each entry is one JSONL line in ``<spool>/.das_quarantine.jsonl``
    (``name``, ``reason``, ``attempts``, and — when the failure was an
    exception — a structured ``error`` object carrying the exception
    type and its :class:`~repro.errors.ReproError` taxonomy chain);
    quarantined names are loaded back on restart so a poison file is
    never retried across runs.  Entries written before the structured
    ``error`` field existed load fine — the field is optional on read.

    ``state_dir`` relocates the JSONL out of the spool (sharded
    deployments keep durable state on a separate volume so a vanished
    spool cannot take the quarantine record with it);
    :attr:`directory` stays the spool so :meth:`paths` still names the
    condemned files where they live.
    """

    def __init__(self, directory: str, state_dir: str | None = None):
        self.directory = os.fspath(directory)
        base = os.fspath(state_dir) if state_dir is not None else self.directory
        self.path = os.path.join(base, QUARANTINE_NAME)
        self._lock = threading.Lock()
        self.reasons: dict[str, str] = {}  # guarded-by: _lock
        self.errors: dict[str, dict | None] = {}  # guarded-by: _lock
        rows, _ = read_lines(self.path, parse=_quarantine_row)
        for name, reason, error in rows:
            self.reasons[name] = reason
            self.errors[name] = error

    def __len__(self) -> int:
        with self._lock:
            return len(self.reasons)

    def __contains__(self, path: str) -> bool:
        with self._lock:
            return os.path.basename(os.fspath(path)) in self.reasons

    def paths(self) -> list[str]:
        """Full spool paths of every quarantined name."""
        with self._lock:
            return [os.path.join(self.directory, name) for name in self.reasons]

    @staticmethod
    def describe_error(error: BaseException) -> dict:
        """The shared-taxonomy description of a failure: the concrete
        exception type plus its :class:`~repro.errors.ReproError` ancestry
        (so tooling can group quarantines by ``StorageError`` vs
        ``ConfigError`` without string-matching messages)."""
        from repro.errors import ReproError

        taxonomy = [
            klass.__name__
            for klass in type(error).__mro__
            if issubclass(klass, ReproError)
        ]
        return {
            "type": type(error).__name__,
            "taxonomy": taxonomy,
            "message": str(error),
        }

    def add(
        self,
        path: str,
        reason: str,
        attempts: int,
        error: BaseException | None = None,
    ) -> None:
        """Record one given-up file with the failure that condemned it."""
        name = os.path.basename(os.fspath(path))
        entry = {"name": name, "reason": reason, "attempts": int(attempts)}
        if error is not None:
            entry["error"] = self.describe_error(error)
        with self._lock:
            self.reasons[name] = reason
            self.errors[name] = entry.get("error")
        # The append happens outside the lock: the JSONL is a rebuild
        # log keyed by name (load() just replays it into the maps), so
        # row order across threads doesn't matter — but holding the lock
        # across file I/O would stall every reader behind the disk.
        append_lines(self.path, [entry])
