"""``das_search`` — find DAS files by time range or regex (paper §IV-A).

Two query types, exactly as the paper's command-line tool:

* **Type 1** (``-s``/``-c``): a start timestamp plus a count of files at
  or after it, e.g. ``das_search -s 170728224510 -c 2``.
* **Type 2** (``-e``): a regular expression matched against each file's
  timestamp, e.g. ``das_search -e '170728224[567]10'``.

Searches read only metadata (the file name carries the stamp; the
attribute footer is consulted when it does not), which is why search is
orders of magnitude cheaper than touching the data — the Fig. 6 result.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from repro.errors import FormatError, StorageError
from repro.storage.dasfile import read_das_metadata
from repro.storage.metadata import parse_timestamp
from repro.utils.iostats import IOStats

_STAMP_RE = re.compile(r"(\d{12})")


@dataclass(frozen=True)
class DASFileInfo:
    """Catalog entry for one DAS file."""

    path: str
    timestamp: str

    @property
    def start_time(self):
        return parse_timestamp(self.timestamp)


def timestamp_from_filename(name: str) -> str | None:
    """Extract the 12-digit stamp from an acquisition file name."""
    match = _STAMP_RE.search(os.path.basename(name))
    return match.group(1) if match else None


def file_info(path: str, iostats: IOStats | None = None) -> DASFileInfo | None:
    """Catalog entry for one file, or ``None`` when it is not a DAS file.

    The file name's stamp is enough — the fast path ``das_search`` takes;
    only a name without one opens the metadata footer (one metadata op).
    Such a name is skipped when it is a directory, not an hdf5lite file
    (junk bytes, a torn footer) or an hdf5lite file without DAS metadata
    and a ``DataCT`` dataset — a VCA or RCA merged into the same
    directory, say.
    """
    stamp = timestamp_from_filename(path)
    if stamp is not None:
        return DASFileInfo(path=path, timestamp=stamp)
    try:
        metadata, _ = read_das_metadata(path, iostats=iostats)
    except (FormatError, StorageError, IsADirectoryError):
        return None
    return DASFileInfo(path=path, timestamp=metadata.timestamp)


def scan_directory(
    directory: str | os.PathLike, iostats: IOStats | None = None
) -> list[DASFileInfo]:
    """Catalog a directory of DAS files, sorted by timestamp
    (one :func:`file_info` per ``.h5`` name)."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise StorageError(f"not a directory: {directory!r}")
    infos = [
        file_info(os.path.join(directory, name), iostats)
        for name in sorted(os.listdir(directory))
        if name.endswith(".h5")
    ]
    infos = [info for info in infos if info is not None]
    infos.sort(key=lambda info: info.timestamp)
    return infos


def das_search(
    directory: str | os.PathLike | list[DASFileInfo],
    start: str | None = None,
    count: int | None = None,
    pattern: str | None = None,
    iostats: IOStats | None = None,
) -> list[DASFileInfo]:
    """Search DAS files by timestamp range (type 1) or regex (type 2).

    ``directory`` may be a path or a pre-built catalog from
    :func:`scan_directory`.  Exactly one query form must be given:
    ``start`` (+ optional ``count``) or ``pattern``.
    """
    if (start is None) == (pattern is None):
        raise StorageError(
            "give either start (+count) for a range query or pattern for a regex query"
        )
    if isinstance(directory, (str, os.PathLike)):
        catalog = scan_directory(directory, iostats=iostats)
    else:
        catalog = sorted(directory, key=lambda info: info.timestamp)

    if pattern is not None:
        try:
            regex = re.compile(pattern)
        except re.error as exc:
            raise StorageError(f"bad regex {pattern!r}: {exc}") from exc
        return [info for info in catalog if regex.search(info.timestamp)]

    parse_timestamp(start)  # validate
    selected = [info for info in catalog if info.timestamp >= start]
    if count is not None:
        if count < 0:
            raise StorageError("count must be >= 0")
        selected = selected[:count]
    return selected
