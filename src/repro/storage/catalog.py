"""Persistent acquisition catalog.

Searching 2880 files in 0.002 s (paper Fig. 6) is only possible against
an index, not a directory walk.  ``Catalog`` maintains that index: a
JSON sidecar (``.das_catalog.json``) mapping timestamps to file entries,
refreshed incrementally (only files newer than the last scan are
stat'ed).  ``das_search`` accepts a catalog anywhere it accepts a
directory.
"""

from __future__ import annotations

import bisect
import json
import os
from operator import attrgetter
from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.storage.search import DASFileInfo, file_info, scan_directory
from repro.utils.durable import publish

CATALOG_NAME = ".das_catalog.json"
CATALOG_VERSION = 1


@dataclass
class Catalog:
    """An indexed directory of DAS files."""

    directory: str
    entries: list[DASFileInfo] = field(default_factory=list)
    last_mtime: float = 0.0

    @property
    def path(self) -> str:
        return os.path.join(self.directory, CATALOG_NAME)

    # -- construction -----------------------------------------------------------
    @classmethod
    def build(cls, directory: str | os.PathLike, read_shapes: bool = False) -> "Catalog":
        """Scan a directory from scratch and build the index."""
        directory = os.fspath(directory)
        entries = scan_directory(directory, read_shapes=read_shapes)
        catalog = cls(directory=directory, entries=entries)
        catalog.last_mtime = catalog._dir_mtime()
        return catalog

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "Catalog":
        """Load the sidecar index; raises if absent or corrupt."""
        directory = os.fspath(directory)
        path = os.path.join(directory, CATALOG_NAME)
        try:
            with open(path, "rb") as fh:
                raw = json.load(fh)
            if raw["version"] == CATALOG_VERSION:
                entries = []
                for entry in raw["entries"]:
                    name, timestamp = entry["name"], entry["timestamp"]
                    if not (isinstance(name, str) and isinstance(timestamp, str)):
                        raise StorageError(f"corrupt catalog {path!r}: entry {entry!r}")
                    entries.append(DASFileInfo(
                        path=os.path.join(directory, name),
                        timestamp=timestamp,
                        n_channels=entry.get("n_channels", 0),
                        n_samples=entry.get("n_samples", 0),
                    ))
                last_mtime = float(raw.get("last_mtime", 0.0))
                return cls(directory=directory, entries=entries, last_mtime=last_mtime)
        except FileNotFoundError:
            raise StorageError(f"no catalog at {path!r}; build one first") from None
        except (ValueError, LookupError, TypeError) as exc:
            raise StorageError(f"corrupt catalog {path!r}: {exc!r}") from exc
        raise StorageError(f"catalog version {raw['version']!r} unsupported")

    @classmethod
    def open(cls, directory: str | os.PathLike) -> "Catalog":
        """Load the index if present (refreshing if stale), else build it."""
        directory = os.fspath(directory)
        try:
            catalog = cls.load(directory)
        except StorageError:
            catalog = cls.build(directory)
            catalog.save()
            return catalog
        if catalog.stale():
            catalog.refresh()
            catalog.save()
        return catalog

    # -- persistence --------------------------------------------------------------
    def save(self) -> None:
        payload = {
            "version": CATALOG_VERSION,
            "last_mtime": self.last_mtime,
            "entries": [
                {
                    "name": os.path.basename(entry.path),
                    "timestamp": entry.timestamp,
                    "n_channels": entry.n_channels,
                    "n_samples": entry.n_samples,
                }
                for entry in self.entries
            ],
        }
        # one C-encoder call, not dump()'s iterator
        publish(self.path, json.dumps(payload).encode())

    # -- freshness ------------------------------------------------------------------
    def _dir_mtime(self) -> float:
        try:
            return os.stat(self.directory).st_mtime
        except OSError:
            return 0.0

    def stale(self) -> bool:
        """True if the directory's ``.h5`` files differ from the index.

        The mtime only rules a change out: ``>=`` rather than ``>``,
        because directory mtimes have finite resolution and a file
        created in the *same* tick the index was taken leaves
        ``_dir_mtime() == last_mtime``.  It cannot rule one in, since
        :meth:`save` writes the sidecar into the directory it indexes and
        so moves the mtime past ``last_mtime`` itself.  The directory's
        ``.h5`` names decide instead (one listing, no file opened), so an
        unchanged, indexed directory is not rescanned.  An ``.h5`` file
        that is not a DAS file is never indexed and keeps it stale.
        """
        if self._dir_mtime() < self.last_mtime:
            return False
        try:
            names = {n for n in os.listdir(self.directory) if n.endswith(".h5")}
        except OSError:
            return True
        return names != {os.path.basename(entry.path) for entry in self.entries}

    def refresh(self) -> int:
        """Re-scan the directory, keeping known entries; returns the number
        of added-or-removed files."""
        fresh = scan_directory(self.directory)
        known = {entry.path: entry for entry in self.entries}
        merged = []
        changes = 0
        fresh_paths = set()
        for entry in fresh:
            if entry.path in fresh_paths:
                continue  # one entry per path, whatever the scan yields
            fresh_paths.add(entry.path)
            old = known.get(entry.path)
            if old is not None:
                merged.append(old)  # keep any shape info already gathered
            else:
                merged.append(entry)
                changes += 1
        changes += sum(1 for path in known if path not in fresh_paths)
        merged.sort(key=lambda e: e.timestamp)
        self.entries = merged
        self.last_mtime = self._dir_mtime()
        return changes

    def add(self, path: str | os.PathLike) -> None:
        """Index one file that has just landed without listing the
        directory: the entry :meth:`refresh` would have made for it, at
        the place it would have put it.  Already indexed: left alone."""
        info = file_info(
            os.path.join(self.directory, os.path.basename(os.fspath(path)))
        )
        if info is None:
            return
        order = attrgetter("timestamp", "path")
        at = bisect.bisect_left(self.entries, order(info), key=order)
        if at == len(self.entries) or self.entries[at].path != info.path:
            self.entries.insert(at, info)

    # -- queries ----------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)
