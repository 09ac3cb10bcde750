"""Read-side caching for hdf5lite: block cache + file-handle pool.

The paper's storage analysis (§IV, Fig. 6–7, Table 1) charges VCA reads for
two costs a production HDF5 stack largely amortises: per-file open overhead
and per-request IOPS pressure.  This module supplies the amortisation:

* :class:`BlockCache` — a byte-budgeted LRU cache over a dataset's stored
  units, decoded: whole chunks of a chunked dataset, the checksum blocks
  of a contiguous one — what is verified is what is admitted — or, when it
  carries no sidecar, fixed-size pages of its data region.  Repeated or
  block-local reads (the dominant DAS access pattern) then hit memory
  instead of the backend.
* :class:`FilePool` — an LRU pool of open read-only :class:`~repro.hdf5lite.file.File`
  handles keyed by absolute path, so VCA handles and parallel readers stop
  paying one open per source per read.

Both layers are thread-safe (simmpi ranks are threads) and count their
events only in :class:`repro.utils.iostats.IOStats` (``cache_hits``/
``cache_misses``/``cache_evictions`` and ``pool_hits``/``pool_misses``):
they keep no counters of their own, so experiments read how many requests
the cache absorbed from the same ``IOStats`` as the backend's requests.
A cache or pool built without an ``IOStats`` counts nothing.

A ``byte_budget`` of 0 disables the cache entirely: every read takes the
uncached code path and the backend sees byte-for-byte the same requests as
with no cache attached.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.errors import FormatError
from repro.utils.iostats import IOStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdf5lite.file import File

#: Default block-cache byte budget (64 MiB — a few minutes of scaled DAS data).
DEFAULT_BYTE_BUDGET = 64 * 2**20
#: Default page size for contiguous datasets (1 MiB keeps a whole scaled
#: one-minute dataset in one page while bounding read amplification).
DEFAULT_PAGE_SIZE = 1 << 20
#: Open handles a :class:`FilePool` keeps at once (every pool, private or
#: shared: there is no per-pool setting).
DEFAULT_MAX_HANDLES = 64


@dataclass(frozen=True)
class CacheConfig:
    """Knobs for the read-side cache.

    ``byte_budget`` — total bytes of cached blocks kept resident; 0 disables
    caching (reads behave exactly as without a cache).
    ``page_size`` — granularity for contiguous datasets that carry no
    checksum sidecar (one that does is cached by checksum block).
    """

    byte_budget: int = DEFAULT_BYTE_BUDGET
    page_size: int = DEFAULT_PAGE_SIZE

    def __post_init__(self) -> None:
        if self.byte_budget < 0:
            raise FormatError(f"byte_budget must be >= 0, got {self.byte_budget}")
        if self.page_size < 1:
            raise FormatError(f"page_size must be >= 1, got {self.page_size}")

    @property
    def enabled(self) -> bool:
        return self.byte_budget > 0


class BlockCache:
    """Byte-budgeted LRU cache mapping ``(file identity, unit offset, unit
    bytes)`` → bytes.

    Keys are opaque hashables built by the dataset layer; values are
    immutable ``bytes``.  The identity (``st_dev``, ``st_ino``,
    ``st_mtime_ns``, ``st_size`` of the opened file) replaces
    invalidation.  A block larger than the whole budget is never admitted
    (the read still succeeds, it just isn't retained).
    """

    def __init__(self, config: CacheConfig | None = None, iostats: IOStats | None = None):
        self.config = config if config is not None else CacheConfig()
        self.iostats = iostats
        self._lock = threading.RLock()
        self._blocks: OrderedDict[Hashable, bytes] = OrderedDict()  # guarded-by: _lock
        self._current_bytes = 0  # guarded-by: _lock

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._current_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def _stats(self, iostats: IOStats | None) -> IOStats | None:
        return iostats if iostats is not None else self.iostats

    def get(self, key: Hashable, iostats: IOStats | None = None) -> bytes | None:
        """Look up a block; counts a hit or miss in the ``IOStats``."""
        stats = self._stats(iostats)
        with self._lock:
            data = self._blocks.get(key)
            if data is not None:
                self._blocks.move_to_end(key)
        if stats is not None:
            if data is not None:
                stats.record_cache_hit()
            else:
                stats.record_cache_miss()
        return data

    def put(self, key: Hashable, data: bytes, iostats: IOStats | None = None) -> None:
        """Insert a block, evicting LRU blocks to stay within budget."""
        if not self.enabled or len(data) > self.config.byte_budget:
            return
        stats = self._stats(iostats)
        evicted = 0
        with self._lock:
            old = self._blocks.pop(key, None)
            if old is not None:
                self._current_bytes -= len(old)
            self._blocks[key] = data
            self._current_bytes += len(data)
            while self._current_bytes > self.config.byte_budget:
                _, victim = self._blocks.popitem(last=False)
                self._current_bytes -= len(victim)
                evicted += 1
        if evicted and stats is not None:
            stats.record_cache_eviction(evicted)

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._current_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            blocks, nbytes = len(self._blocks), self._current_bytes
        return (
            f"<BlockCache {blocks} blocks / {nbytes}B "
            f"(budget {self.config.byte_budget}B)>"
        )


class FilePool:
    """LRU pool of shared, open, read-only ``File`` handles.

    ``acquire`` returns an open handle for a path, opening it only on first
    use (or after eviction).  Handles are owned by the pool: callers must
    not close them; the pool closes the least-recently-used handle when
    more than :data:`DEFAULT_MAX_HANDLES` are open, and all of them on
    ``close_all``.  A ``File`` opened without a pool builds its own for
    its virtual sources, so no read holds more.

    A pool carries an optional shared :class:`BlockCache` and default
    :class:`~repro.utils.iostats.IOStats`; files it opens inherit both (and
    re-acquiring with a different ``iostats`` re-points the handle's
    accounting at the new collector).
    """

    def __init__(
        self,
        iostats: IOStats | None = None,
        cache: BlockCache | None = None,
        verify_checksums: bool = True,
    ):
        self.iostats = iostats
        self.cache = cache
        self.verify_checksums = bool(verify_checksums)
        self._lock = threading.RLock()
        self._handles: OrderedDict[str, "File"] = OrderedDict()  # guarded-by: _lock

    def acquire(self, path: str | os.PathLike, iostats: IOStats | None = None) -> "File":
        """An open read-only handle for ``path`` (opened at most once)."""
        from repro.hdf5lite.file import File

        key = os.path.normpath(os.path.abspath(os.fspath(path)))
        stats = iostats if iostats is not None else self.iostats
        with self._lock:
            handle = self._handles.get(key)
            if handle is not None and not handle.closed:
                self._handles.move_to_end(key)
                if stats is not None:
                    stats.record_pool_hit()
                    handle.set_iostats(stats)
                return handle
            if handle is not None:  # closed behind our back; reopen
                del self._handles[key]
            if stats is not None:
                stats.record_pool_miss()
            handle = File(
                key,
                "r",
                iostats=stats,
                cache=self.cache,
                pool=self,
                verify_checksums=self.verify_checksums,
            )
            self._handles[key] = handle
            while len(self._handles) > DEFAULT_MAX_HANDLES:
                _, victim = self._handles.popitem(last=False)
                victim.close()
            return handle

    def __len__(self) -> int:
        with self._lock:
            return len(self._handles)

    def close_all(self) -> None:
        with self._lock:
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()

    def __enter__(self) -> "FilePool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FilePool {len(self)}/{DEFAULT_MAX_HANDLES} handles>"


def resolve_cache(cache: BlockCache | CacheConfig | None) -> BlockCache | None:
    """Normalise a user-supplied cache argument to a usable ``BlockCache``.

    Accepts an existing (shareable) :class:`BlockCache`, a
    :class:`CacheConfig` (a private cache is built from it), or ``None``.
    Disabled configurations (budget 0) resolve to ``None`` so readers take
    the exact uncached code path.
    """
    if cache is None:
        return None
    if isinstance(cache, CacheConfig):
        return BlockCache(cache) if cache.enabled else None
    if isinstance(cache, BlockCache):
        return cache if cache.enabled else None
    raise FormatError(f"cache must be a BlockCache, CacheConfig or None, got {cache!r}")
