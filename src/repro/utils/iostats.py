"""I/O operation counters.

The paper's storage arguments are about *operation counts*: number of file
opens (each has a constant overhead on a disk file system), number of read
requests (IOPS pressure), and bytes moved.  ``IOStats`` is threaded through
the hdf5lite backend and the DASS readers so every experiment can report —
and every test can assert on — exact counts.

Cache-layer counters (block-cache hits/misses/evictions, handle-pool
hits/misses) live on the same object, and only here — the cache and pool
keep none of their own — so one ``IOStats`` tells the whole story of a read
path: how many requests reached the backend *and* how many were absorbed
by the cache.  :meth:`full_snapshot` reads every counter in one consistent
view and :meth:`delta` the counts since an earlier one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

_FIELDS = (
    "opens",
    "closes",
    "seeks",
    "reads",
    "writes",
    "bytes_read",
    "bytes_written",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "pool_hits",
    "pool_misses",
)


@dataclass
class IOStats:
    """Thread-safe accumulator of I/O operation counts."""

    opens: int = 0  # guarded-by: _lock
    closes: int = 0  # guarded-by: _lock
    seeks: int = 0  # guarded-by: _lock
    reads: int = 0  # guarded-by: _lock
    writes: int = 0  # guarded-by: _lock
    bytes_read: int = 0  # guarded-by: _lock
    bytes_written: int = 0  # guarded-by: _lock
    cache_hits: int = 0  # guarded-by: _lock
    cache_misses: int = 0  # guarded-by: _lock
    cache_evictions: int = 0  # guarded-by: _lock
    pool_hits: int = 0  # guarded-by: _lock
    pool_misses: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def record_open(self) -> None:
        with self._lock:
            self.opens += 1

    def record_close(self) -> None:
        with self._lock:
            self.closes += 1

    def record_seek(self) -> None:
        with self._lock:
            self.seeks += 1

    def record_read(self, nbytes: int) -> None:
        with self._lock:
            self.reads += 1
            self.bytes_read += nbytes

    def record_write(self, nbytes: int) -> None:
        with self._lock:
            self.writes += 1
            self.bytes_written += nbytes

    def record_cache_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1

    def record_cache_miss(self) -> None:
        with self._lock:
            self.cache_misses += 1

    def record_cache_eviction(self, count: int = 1) -> None:
        with self._lock:
            self.cache_evictions += count

    def record_pool_hit(self) -> None:
        with self._lock:
            self.pool_hits += 1

    def record_pool_miss(self) -> None:
        with self._lock:
            self.pool_misses += 1

    @property
    def requests(self) -> int:
        """Total I/O requests (reads + writes) — the IOPS-relevant count."""
        return self.reads + self.writes

    def total_bytes_read(self) -> int:
        """The ``bytes_read`` counter alone, for callers that bracket a
        request with it (a whole snapshot per reading is the cost of a
        small warm request's bookkeeping)."""
        with self._lock:
            return self.bytes_read

    def merge(self, other: "IOStats") -> None:
        """Add ``other``'s counters into this accumulator.

        Reads ``other`` through its own lock (via :meth:`full_snapshot`) so
        a source that is still being mutated by another thread cannot be
        torn mid-merge.  The two locks are never held simultaneously, so no
        ordering discipline (and no deadlock) is needed.
        """
        other_snap = other.full_snapshot()
        with self._lock:
            for name in _FIELDS:
                setattr(self, name, getattr(self, name) + other_snap[name])

    def reset(self) -> None:
        with self._lock:
            for name in _FIELDS:
                setattr(self, name, 0)

    def full_snapshot(self) -> dict[str, int]:
        """Every counter (backend + cache layer) in one consistent view."""
        with self._lock:
            return {name: getattr(self, name) for name in _FIELDS}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Counters accumulated since ``before`` (a :meth:`full_snapshot`).

        Keys absent from ``before`` count from zero.  This is how per-run
        profiles report the I/O of one pipeline execution against a shared
        accumulator.
        """
        now = self.full_snapshot()
        return {name: now[name] - before.get(name, 0) for name in now}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        snap = self.full_snapshot()
        return (
            f"IOStats(opens={snap['opens']}, reads={snap['reads']}, "
            f"writes={snap['writes']}, bytes_read={snap['bytes_read']}, "
            f"bytes_written={snap['bytes_written']}, "
            f"cache_hits={snap['cache_hits']}, cache_misses={snap['cache_misses']})"
        )
