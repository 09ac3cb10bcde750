"""Durable state: the one atomic publisher and the one JSONL log format.

Sidecars (checkpoints, health files, checks baselines) are
published whole by :func:`publish`; an hdf5lite file, which its writer
builds in a ``.tmp`` sibling, by :func:`promote`.  The event and
quarantine logs are one JSON object per line, written by
:func:`append_lines` and read by :func:`read_lines`.  This is the only
module that calls ``os.fsync``.  A log row counts once its newline is
on disk: readers skip a torn last line and the next append cuts it off.
"""

from __future__ import annotations

import fcntl
import json
import os
from typing import Any, Callable

from repro.errors import CorruptDataError

__all__ = ["publish", "promote", "append_lines", "read_lines"]


def publish(path: str | os.PathLike, data: bytes, previous: str | None = None) -> None:
    """Atomically replace ``path`` with ``data``.

    ``data`` goes to a ``.tmp`` sibling that is fsynced before any rename,
    so the published name never points at unwritten bytes.  With
    ``previous``, the old file is demoted there *before* the promote: a
    kill between the two renames loses only the newest copy, never both.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if previous is not None and os.path.exists(path):
        os.replace(path, previous)
    os.replace(tmp, path)


def promote(tmp: str, path: str) -> None:
    """Publish ``tmp``, a finished sibling of ``path`` its writer closed:
    fsync it, then ``os.replace`` it onto ``path``."""
    with open(tmp, "rb") as handle:
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def append_lines(path: str | os.PathLike, rows: list[dict]) -> int:
    """Append ``rows`` one JSON object per line, flush + fsync, and return
    the log's new length.

    An unterminated last line (a writer killed mid-row) is cut first, so
    the new rows start on a fresh line.  Appenders hold an exclusive
    ``flock`` on the log, so no append cuts a row another one is writing.
    """
    data = "".join(json.dumps(row) + "\n" for row in rows).encode("utf-8")
    with open(path, "a+b") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        end = complete = handle.seek(0, os.SEEK_END)
        while complete:
            handle.seek(complete - 1)
            if handle.read(1) == b"\n":
                break
            complete -= 1
        if complete < end:
            handle.truncate(complete)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
        return complete + len(data)


def read_lines(
    path: str | os.PathLike,
    start: int = 0,
    parse: Callable[[dict], Any] | None = None,
) -> tuple[list, int]:
    """The log's complete rows from byte ``start`` and the offset past the
    last of them; a missing log is empty and blank lines are skipped.

    ``parse`` maps each row to what is returned.  A complete line that is
    not a JSON object, or that ``parse`` rejects with a ``LookupError``,
    ``TypeError`` or ``ValueError``, is a :class:`CorruptDataError` at the
    line's offset.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            data = handle.read()
    except FileNotFoundError:
        return [], start
    stop = data.rfind(b"\n") + 1
    rows: list = []
    offset = start
    for line in data[:stop].split(b"\n")[:-1]:
        if line.strip():
            try:
                row = json.loads(line)
                if isinstance(row, dict):
                    rows.append(row if parse is None else parse(row))
            except (LookupError, TypeError, ValueError) as exc:
                raise CorruptDataError(
                    os.fspath(path), offset, f"log row does not parse: {exc!r}"
                ) from exc
            if not isinstance(row, dict):
                raise CorruptDataError(os.fspath(path), offset, "log row is not a json object")
        offset += len(line) + 1
    return rows, start + stop
