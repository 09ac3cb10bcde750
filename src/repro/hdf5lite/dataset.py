"""Dataset objects: N-dimensional arrays with three storage layouts.

* ``contiguous`` — one C-ordered buffer in the file; hyperslab reads fetch
  the spans the selection lands on, bridging only small holes.
* ``chunked`` — the array is split on a regular chunk grid, each chunk a
  contiguous buffer; reads open only the chunks a selection intersects.
* ``virtual`` — the data live in *other* files (see
  :mod:`repro.hdf5lite.virtual`); reads are delegated to the source files.

What a contiguous or chunked dataset keeps on disk is described once, by
its **stored-unit map** (:meth:`Dataset._stored_units`): a unit is the
byte range one backend request fetches, one sidecar CRC covers, one decode
turns into samples and one cache entry holds — a chunk, a checksum block,
or a cache page.  The map is where the chunk index, the ``chunk_enc`` size
map, the codec attribute and the checksum sidecar are checked against each
other and against the data region; reads, ``checksum`` and ``inspect``
all walk it.

A read is one ordered stage list.  *Plan*: the selection becomes spans
(:func:`~repro.hdf5lite.hyperslab.plan_spans`) or touched chunks
(:meth:`Dataset._touched_chunks`).  *Load* each unit they land on
(:meth:`Dataset._load_unit`): cache lookup → fetch → verify →
decode(select) → admit — a codec chunk is decoded whole when a cache will
hold it, and otherwise only as far as the selection reaches into it.
Every backend request and cache operation stays on the calling thread, in
grid order; the codec chunks a read loads without a cache are verified,
decoded and scattered overlapped, on a pool that the outermost read owns
and a virtual read shares with its sources (:func:`_in_groups`, the one
overlap loop, which chunk encodes run through too).  *Scatter*: the
samples are cast-assigned into an array the caller owns
(:meth:`Dataset.read_direct`; :meth:`Dataset.read_hyperslab` is that into
a fresh array) — any dtype, any strides.  A virtual dataset's plan
stage hands every source its own band of the caller's buffer and pre-fills
only when its sources do not tile it.  From the executor's float64 block
down to the unit, every sample lands once.

A stored unit and its CRC are written once, when the dataset is created
(:meth:`Dataset._store_chunks` appends every chunk).  A hyperslab write
plans with the same planner at ``max_gap=0`` and is taken only by a
contiguous dataset without a sidecar; on any other it is a
``FormatError`` before any byte is written.
"""

from __future__ import annotations

import itertools
import math
import os
import zlib
from bisect import bisect_right
from concurrent.futures import Future, ThreadPoolExecutor, wait
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import FormatError, ReproError, SelectionError
from repro.hdf5lite import dtype as _dtype
from repro.hdf5lite.attributes import Attributes
from repro.hdf5lite.binary import HEADER_SIZE
from repro.hdf5lite.checksum import CRC_ATTR, block_count, checksum_info, verify_block
from repro.hdf5lite.codecs import CODEC_ATTR, Codec, resolve_codec
from repro.hdf5lite.hyperslab import (
    COALESCE_GAP_BYTES,
    SPAN_SCRATCH_BYTES,
    Hyperslab,
    gather_spans,
    normalize_selection,
    plan_spans,
    selection_shape,
)
from repro.hdf5lite.virtual import VirtualSource, sources_tile

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdf5lite.cache import BlockCache
    from repro.hdf5lite.file import File

LAYOUT_CONTIGUOUS = "contiguous"
LAYOUT_CHUNKED = "chunked"
LAYOUT_VIRTUAL = "virtual"


class _Unit(NamedTuple):
    """One stored unit of a dataset (see :meth:`Dataset._stored_units`)."""

    key: object  # chunk key ``"i,j"``, or the block / page number
    offset: int  # absolute file offset
    nbytes: int  # bytes on disk
    crc: int | None  # CRC32 the stored bytes must carry
    shape: tuple[int, ...] | None  # what a chunk decodes to; None = region bytes


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset -c 0`` makes it 1), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Pool:
    """Threads for one call's codec work: ``workers`` of them, one per CPU
    but the caller's (none with one CPU), started by the first
    :meth:`submit` and joined when the ``with`` block that owns the pool
    ends, before that call returns or raises.  A chunk store owns one; so
    does the outermost read, which hands it to every source of a virtual
    dataset it reads."""

    def __init__(self, name: str):
        self._name = name
        self._executor: ThreadPoolExecutor | None = None

    @cached_property
    def workers(self) -> int:
        return _cpus() - 1

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                self.workers, thread_name_prefix=self._name
            )
        return self._executor.submit(fn, item)

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, *_exc: object) -> None:
        if self._executor is not None:
            self._executor.shutdown()


def _in_groups(
    items: Iterable[Any],
    work: Callable[[Any], Any],
    pool: _Pool,
    finish: Callable[[Any, Any], None] = lambda _item, _result: None,
) -> None:
    """Run ``work(item)`` for every item, overlapped on ``pool``: the
    calling thread works the first item of each group of ``workers + 1``
    while the pool works the others, and ``finish(item, result)`` runs on
    the calling thread in item order.  The one overlap loop — chunk
    encodes and chunk decodes both run through it.

    A group is drawn from ``items`` only once the last one is finished,
    so at most ``workers + 1`` items are in flight, and whatever drawing
    an item does (a backend read) stays on the calling thread in item
    order.  The first item in order whose work fails raises its own
    exception, once the rest of its group has drained: nothing runs on
    behind the caller."""
    items = iter(items)
    for first in items:
        rest = list(itertools.islice(items, pool.workers))
        futures = [pool.submit(work, item) for item in rest]
        try:
            finish(first, work(first))
            for item, future in zip(rest, futures):
                finish(item, future.result())
        finally:
            wait(futures)


def _chunk_grid(
    shape: Sequence[int],
    chunks: Sequence[int],
    lo: Sequence[int] | None = None,
    hi: Sequence[int] | None = None,
) -> Iterator[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """Walk grid coordinates ``lo..hi`` (inclusive; the whole grid by
    default) of a chunked array in row-major order: ``(key, start, count)``
    with ``count`` clipped at the array's edge.  The one chunk-grid
    odometer: creation, reads and the unit map all iterate it."""
    if lo is None or hi is None:
        lo = [0] * len(shape)
        hi = [(dim - 1) // c for dim, c in zip(shape, chunks)]
    coord = list(lo)
    while True:
        start = tuple(ci * c for ci, c in zip(coord, chunks))
        count = tuple(min(c, dim - s) for c, s, dim in zip(chunks, start, shape))
        yield ",".join(map(str, coord)), start, count
        dim_idx = len(coord) - 1
        while dim_idx >= 0:
            coord[dim_idx] += 1
            if coord[dim_idx] <= hi[dim_idx]:
                break
            coord[dim_idx] = lo[dim_idx]
            dim_idx -= 1
        if dim_idx < 0:
            break


def _strided_chunk_overlap(
    hs: Hyperslab, chunk_start: Sequence[int], chunk_count: Sequence[int]
) -> tuple[tuple[slice, ...], tuple[slice, ...]] | None:
    """Intersect a (possibly strided) selection with one chunk.

    Returns ``(local, vals)`` slices — ``local`` indexes the chunk's own
    array, ``vals`` the caller's value array of shape ``hs.count`` — or
    ``None`` when the selection's lattice misses the chunk entirely.
    """
    local, vals = [], []
    for a, n, st, c0, cn in zip(
        hs.start, hs.count, hs.stride, chunk_start, chunk_count
    ):
        if n == 0:
            return None
        first = max(0, -(-(c0 - a) // st))
        last = min(n - 1, (c0 + cn - 1 - a) // st)
        if first > last:
            return None
        local.append(slice(a + first * st - c0, a + last * st - c0 + 1, st))
        vals.append(slice(first, last + 1))
    return tuple(local), tuple(vals)


class Dataset:
    """A dataset inside an hdf5lite file.

    Supports numpy-style basic indexing for reads (``ds[...]``,
    ``ds[2:5, ::3]``) and, for contiguous datasets without a checksum
    sidecar in writable files, hyperslab writes (``ds[2:5] = values``).
    """

    #: Degraded-read hook of a virtual dataset: ``handler(source, overlap,
    #: exc) -> fill | None`` — a fill value masks the failed source's span,
    #: ``None`` re-raises; no handler (the default) is fail-fast.  A masking
    #: reader sets it on a Dataset object of its own (``storage.open_vca``).
    on_source_error = None

    def __init__(self, file: "File", path: str, meta: dict[str, Any]):
        if not (
            isinstance(meta, dict) and isinstance(meta.setdefault("attrs", {}), dict)
        ):
            raise FormatError(f"corrupt metadata footer: dataset {path!r} is malformed")
        self._file = file
        self.path = path
        self._meta = meta
        self.attrs = Attributes(
            meta["attrs"],
            on_change=self._changed,
            writable=file.writable,
        )
        # Attributes copies the dict; rebind so mutations persist into meta.
        self._meta["attrs"] = self.attrs._data

    def _changed(self) -> None:
        """An attribute (the sidecar and the codec are attributes) changed
        or a chunk was stored: what was derived from the old state — the
        one place it is invalidated — is derived again on its next use."""
        self.__dict__.pop("_units", None)
        self.__dict__.pop("codec", None)

    # -- basic properties ----------------------------------------------------
    # Nothing resizes, retypes or re-sources a dataset in place, so what is
    # parsed out of the metadata is parsed once per Dataset object (and
    # File keeps one object per dataset).
    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(self._meta["shape"])

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    @cached_property
    def dtype(self) -> np.dtype:
        return _dtype.token_dtype(self._meta["dtype"])

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.size * self.itemsize

    @property
    def layout(self) -> str:
        return self._meta["layout"]

    @property
    def chunks(self) -> tuple[int, ...] | None:
        if self.layout != LAYOUT_CHUNKED:
            return None
        return tuple(self._meta["chunks"])

    @cached_property
    def codec(self) -> "Codec | None":
        """The per-chunk codec named by the ``repro:codec`` attribute, or
        ``None`` for raw (uncompressed) storage.  Unknown codec names raise
        ``FormatError`` at first data access, not at open."""
        spec = self.attrs.get(CODEC_ATTR) if self.layout == LAYOUT_CHUNKED else None
        return resolve_codec(spec) if spec is not None else None

    @cached_property
    def virtual_sources(self) -> tuple[VirtualSource, ...]:
        if self.layout != LAYOUT_VIRTUAL:
            return ()
        return tuple(VirtualSource.from_dict(raw) for raw in self._meta["sources"])

    @property
    def fill(self) -> float:
        """What a virtual dataset reads where no source maps."""
        return self._meta.get("fill", 0)

    @cached_property
    def _sources_tile(self) -> bool:
        """Whether the sources cover every element exactly once, so a read
        has nothing to pre-fill."""
        return sources_tile(self.shape, self.virtual_sources)

    @cached_property
    def _source_index(self) -> tuple[list[int], list[int], list[int]]:
        """The virtual sources ordered by their start on the last axis:
        ``(starts, reach, order)`` — sorted starts, the running maximum of
        the ends in that order, and each position's declaration index.  A
        read bisects both lists to the sources that can touch it."""
        sources = self.virtual_sources
        order = sorted(range(len(sources)), key=lambda i: sources[i].dst_start[-1])
        starts = [sources[i].dst_start[-1] for i in order]
        ends = [start + sources[i].count[-1] for start, i in zip(starts, order)]
        return starts, list(itertools.accumulate(ends, max)), order

    def __repr__(self) -> str:
        return (
            f"<Dataset {self.path!r} shape={self.shape} dtype={self.dtype} "
            f"layout={self.layout}>"
        )

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of a 0-d dataset")
        return self.shape[0]

    # -- stored units --------------------------------------------------------
    @cached_property
    def _units(self) -> dict[object, _Unit]:
        """The unit map reads go through: CRCs attached when the
        file verifies reads, an unchecksummed contiguous region cut into the
        cache's pages when there is a cache."""
        file = self._file
        page = file._cache.config.page_size if file._cache is not None else None
        return self._stored_units(sidecar=file.verify_checksums, span=page)

    def _stored_units(
        self, sidecar: bool, span: int | None = None, problems: list[str] | None = None
    ) -> dict[object, _Unit]:
        """The dataset's stored-unit map, ``key -> unit``, in file order.

        One unit per chunk of a chunked dataset: ``chunk_enc`` bytes when a
        codec is recorded, the clipped chunk shape x itemsize otherwise.  A
        contiguous region is cut into the sidecar's checksum blocks when
        ``sidecar`` asks for CRCs and the dataset carries them, else into
        ``span``-byte units (cache pages), else not at all — the empty map:
        nothing needs whole units, and a virtual dataset stores none.

        This is also the one place the storage maps are checked against
        each other: a chunk index that is not the grid, a codec without its
        size map (or the reverse), an extent outside the data region, a
        sidecar that does not cover every unit exactly.  Each finding
        raises ``FormatError`` naming the dataset — a reader never sees an
        unverified or mis-sized unit — unless ``problems`` is given, when
        it is appended there, the unit left out, and the walk goes on
        (``verify_dataset``).  A sidecar or codec that does not parse
        raises either way.
        """

        def bad(message: str) -> None:
            if problems is None:
                raise FormatError(f"{self.path}: {message}")
            problems.append(message)

        layout, meta, end = self.layout, self._meta, self._file._data_end
        if layout not in (LAYOUT_CONTIGUOUS, LAYOUT_CHUNKED):
            if layout != LAYOUT_VIRTUAL:
                bad(f"unknown layout {layout!r}")
            return {}
        info = checksum_info(self) if sidecar else None
        if layout == LAYOUT_CONTIGUOUS:
            base, region = int(meta["offset"]), self.nbytes
            if base < HEADER_SIZE or base + region > end:
                bad(
                    f"extent [{base}, {base + region}) exceeds the data region "
                    f"[{HEADER_SIZE}, {end})"
                )
                return {}
            crcs = None
            if info is not None and info.chunked:
                bad("checksum sidecar claims chunks on a non-chunked dataset")
            elif info is not None:
                blocks = block_count(region, info.block_size)
                if len(info.crcs) != blocks:
                    bad(f"checksum sidecar has {len(info.crcs)} CRCs, expected {blocks}")
                else:
                    span, crcs = info.block_size, info.crcs
            if not span:
                return {}
            return {
                i: _Unit(
                    i, base + i * span, min(span, region - i * span),
                    None if crcs is None else crcs[i], None,
                )
                for i in range(block_count(region, span))
            }

        index, enc, codec = meta["chunk_index"], meta.get("chunk_enc"), self.codec
        if (codec is None) != (enc is None):
            bad(
                "chunk_enc size map without a codec attribute"
                if codec is None
                else "codec dataset lacks a chunk_enc size map"
            )
            return {}
        crcs = None
        if info is not None and not info.chunked:
            bad("checksum sidecar claims blocks on a chunked dataset")
        elif info is not None:
            crcs = info.chunk_crcs
            if crcs.keys() != index.keys():
                bad(
                    f"checksum sidecar covers {len(crcs)} chunks, "
                    f"the chunk index holds {len(index)}"
                )
        units: dict[object, _Unit] = {}
        strays = len(index)
        for key, _start, count in _chunk_grid(self.shape, self.chunks):
            if key not in index:
                bad(f"missing chunk {key} in the chunk index")
                continue
            strays -= 1
            if codec is not None and key not in enc:
                bad(f"chunk {key} missing from the chunk_enc size map")
                continue
            try:
                offset = int(index[key])
                nbytes = (
                    math.prod(count) * self.itemsize if codec is None else int(enc[key])
                )
            except (TypeError, ValueError, OverflowError):
                bad(f"chunk {key} has a non-integer offset or size")
                continue
            if offset < HEADER_SIZE or nbytes < 0 or offset + nbytes > end:
                bad(
                    f"chunk {key} extent [{offset}, {offset + nbytes}) exceeds "
                    f"the data region [{HEADER_SIZE}, {end})"
                )
                continue
            units[key] = _Unit(
                key, offset, nbytes, None if crcs is None else crcs.get(key), count
            )
        if strays:
            bad(f"chunk index has {strays} entries that are not on the chunk grid")
        return units

    def _fetch_unit(self, unit: _Unit) -> bytes:
        """Fetch and verify: a unit's stored bytes in one backend request,
        refused unless they carry the CRC the unit expects."""
        return self._verify_unit(
            unit, self._file._backend.read_at(unit.offset, unit.nbytes)
        )

    def _verify_unit(self, unit: _Unit, data: bytes) -> bytes:
        """``data``, the unit's stored bytes, refused unless they carry the
        CRC the unit expects (the one place bytes are verified; a unit
        without a CRC has nothing to check).  Pure: any thread runs it."""
        if unit.crc is not None:
            verify_block(
                self._file.filename, unit.offset, data, unit.crc,
                what=f"{'block' if unit.shape is None else 'chunk'} {unit.key}",
            )
        return data

    def _decode_unit(
        self, unit: _Unit, data: bytes, select: "tuple[slice, ...] | None" = None
    ) -> np.ndarray:
        """Decode(select): a verified codec chunk's stored bytes as samples —
        its ``select`` lattice, or (no ``select``) the whole chunk.  Pure:
        any thread runs it.  The codec reads only as far into the payload
        as the selection needs, and may skip the stream's own end-to-end
        check exactly when the unit's CRC has just covered every byte of it
        (:meth:`Codec.decode <repro.hdf5lite.codecs.Codec.decode>`)."""
        return self.codec.decode(
            data, unit.shape, self.dtype, select=select,
            verified=unit.crc is not None,
        )

    def _load_unit(
        self,
        unit: _Unit,
        cache: "BlockCache | None",
        select: "tuple[slice, ...] | None" = None,
    ) -> "bytes | np.ndarray":
        """A unit's decoded bytes — or, given ``select``, that lattice of a
        chunk as an array: cache lookup -> fetch -> verify -> decode(select)
        -> admit, the one loader behind every read that needs whole units
        on the calling thread.  (A chunked read takes the stages apart for
        the codec chunks it loads without a cache: fetch on the calling
        thread, verify and decode on its pool — :meth:`_read_chunked`.)

        What is verified is what is admitted: the cache holds a unit's
        *decoded* bytes under one key, so a hit costs no CRC and no decode,
        and the CRC — which covers the stored payload — is checked before
        any decode, on the miss path only.

        A cache is what selects whole-chunk decode: what it admits has to
        serve any later selection, so the chunk is decoded whole once and
        every touch slices the entry.  Without one nothing outlives the
        read, so the selection goes down to :meth:`_decode_unit`.
        """
        codec = self.codec
        if cache is None:
            data = self._fetch_unit(unit)
            if codec is not None:
                return self._decode_unit(unit, data, select)
        else:
            stats = self._file._backend.iostats
            key = (self._file._cache_key, unit.offset, unit.nbytes)
            data = cache.get(key, stats)
            if data is None:
                data = self._fetch_unit(unit)
                if codec is not None:
                    data = self._decode_unit(unit, data).tobytes()
                cache.put(key, data, stats)
        if select is None:
            return data
        return np.frombuffer(data, dtype=self.dtype).reshape(unit.shape)[select]

    # -- reading ---------------------------------------------------------------
    def __getitem__(self, selection: object) -> np.ndarray:
        hs, squeeze = normalize_selection(selection, self.shape)
        out = self.read_hyperslab(hs)
        final_shape = selection_shape(hs, squeeze)
        return out.reshape(final_shape)

    def read(self) -> np.ndarray:
        """Read the full dataset."""
        return self.read_hyperslab(Hyperslab.full(self.shape))

    def read_hyperslab(self, hs: Hyperslab) -> np.ndarray:
        """Read a hyperslab; returns an array of shape ``hs.count``."""
        self._require_within(hs)  # before allocating what it asks for
        out = np.empty(hs.count, dtype=self.dtype)
        self.read_direct(hs, out)
        return out

    def read_direct(self, hs: Hyperslab, out: np.ndarray) -> None:
        """Read a hyperslab into the caller's array (h5py's ``read_direct``).

        ``out`` must have shape ``hs.count``; it may hold any dtype the
        dataset's values can be assigned to (they are cast on assignment,
        as ``out[...] = values`` would) and need not be contiguous — a
        column band of a larger array is how a virtual dataset hands each
        source its own part of the caller's buffer.  Every layout has this
        one read path: the selected samples are written once, where the
        caller wants them.

        The read owns a decode pool (:class:`_Pool`, threads started only
        when two or more codec chunks are decoded and there is more than
        one CPU) that every source of a virtual dataset shares; it is shut
        down before the read returns or raises.
        """
        with _Pool("decode") as pool:
            self._read_direct(hs, out, pool)

    def _read_direct(self, hs: Hyperslab, out: np.ndarray, pool: _Pool) -> None:
        """:meth:`read_direct` with the outermost read's ``pool``."""
        self._require_within(hs)
        if out.shape != hs.count:
            raise SelectionError(
                f"destination shape {out.shape} != selection shape {hs.count}"
            )
        layout = self.layout
        if layout == LAYOUT_CONTIGUOUS:
            self._read_contiguous(hs, out)
        elif layout == LAYOUT_CHUNKED:
            self._read_chunked(hs, out, pool)
        elif layout == LAYOUT_VIRTUAL:
            self._read_virtual(hs, out, pool)
        else:
            raise FormatError(f"unknown dataset layout {layout!r}")

    def _require_within(self, hs: Hyperslab) -> None:
        if not hs.within(self.shape):
            raise SelectionError(
                f"hyperslab {hs} outside dataset shape {self.shape}"
            )

    def _read_spans(
        self,
        hs: Hyperslab,
        shape: Sequence[int],
        fetch: Callable[[int, memoryview], None],
        out: np.ndarray,
        resident: Callable[[int], tuple[bytes, int]] | None = None,
    ) -> None:
        """Read ``hs`` of a C-ordered byte region laid out as ``shape``.

        The one place a selection becomes requests: :func:`plan_spans`
        bridges holes up to ``COALESCE_GAP_BYTES`` and ``fetch(byte_offset,
        dest)`` — the only thing the contiguous and raw-chunk read paths
        differ in — fills ``dest`` with the region's bytes from
        ``byte_offset`` on.  Spans arrive in ascending offset order.
        Hole-free spans land in ``out`` itself when it can take the bytes
        as they are; everything else passes through at most
        ``SPAN_SCRATCH_BYTES`` of scratch and one cast-assign.
        """
        itemsize = self.itemsize
        plan = plan_spans(
            hs,
            shape,
            COALESCE_GAP_BYTES // itemsize,
            SPAN_SCRATCH_BYTES // itemsize,
            in_place=out.dtype == self.dtype and out.flags.c_contiguous,
        )
        gather_spans(plan, out, fetch, self.dtype, resident)

    def _read_contiguous(self, hs: Hyperslab, out: np.ndarray) -> None:
        units = self._units
        if not units:
            # Neither a sidecar nor a cache needs whole units: the spans
            # the selection lands on go straight to the backend.
            base = int(self._meta["offset"])
            backend = self._file._backend

            def fetch(offset: int, dest: memoryview) -> None:
                backend.readinto_at(base + offset, dest)

            self._read_spans(hs, self.shape, fetch, out)
            return
        # Bytes come out of whole units — verified as a block, cached as a
        # block.  Units are aligned within the dataset's own data region
        # (byte 0 = the first unit's offset in the file), so none straddles
        # the metadata footer or another dataset.  Unit 0 is full-sized
        # unless it is the only one, so its length is the map's stride.
        # Offsets arrive ascending, so holding the last unit makes it one
        # load (one cache lookup) per unit per read, however many spans it
        # serves.
        size = units[0].nbytes
        cache = self._file._cache
        held: list = [-1, b""]

        def unit_at(i: int) -> bytes:
            if held[0] != i:
                held[:] = i, self._load_unit(units[i], cache)
            return held[1]

        def resident(offset: int) -> tuple[bytes, int]:
            i = offset // size
            return unit_at(i), i * size

        def fetch(offset: int, dest: memoryview) -> None:
            end = offset + len(dest)
            for i in range(offset // size, (end - 1) // size + 1):
                data = unit_at(i)
                lo = max(offset, i * size)
                hi = min(end, i * size + len(data))
                dest[lo - offset : hi - offset] = data[lo - i * size : hi - i * size]

        self._read_spans(hs, self.shape, fetch, out, resident)

    def _touched_chunks(
        self, hs: Hyperslab
    ) -> Iterator[tuple[_Unit, tuple[slice, ...], tuple[slice, ...]]]:
        """Every stored chunk a selection lands on, in grid order:
        ``(unit, local, vals)`` with ``local``/``vals`` as
        :func:`_strided_chunk_overlap` returns them.

        The walk is bounded by the selection *lattice*: the last touched
        element along each axis sits at start + (count-1)*stride, so a
        strided selection visits (and pays for) only the chunks its
        lattice actually lands on.
        """
        if hs.size == 0:
            return
        chunks = self.chunks
        assert chunks is not None
        units = self._units
        lo = [s // c for s, c in zip(hs.start, chunks)]
        hi = [
            (s + (n - 1) * st) // c
            for s, n, st, c in zip(hs.start, hs.count, hs.stride, chunks)
        ]
        for key, start, count in _chunk_grid(self.shape, chunks, lo, hi):
            overlap = _strided_chunk_overlap(hs, start, count)
            if overlap is not None:
                yield units[key], *overlap

    def _read_chunked(self, hs: Hyperslab, out: np.ndarray, pool: _Pool) -> None:
        """Every touched chunk in grid order.  The calling thread makes
        every backend request and every cache lookup and admission, in that
        order; a codec chunk loaded without a cache leaves it as its stored
        payload, and its verify, decode(select) and scatter run overlapped
        on ``pool`` (:func:`_in_groups`, so at most ``workers + 1``
        payloads are in flight).  A chunk that fails on the calling thread
        travels on as its error, so the first chunk in grid order that
        fails is the one that raises, once the chunks before it are done.
        """
        codec = self.codec
        itemsize = self.itemsize
        backend = self._file._backend
        cache = self._file._cache

        def fetched() -> Iterator[tuple]:
            for unit, local, vals in self._touched_chunks(hs):
                # Chunk-granular caching: a miss loads the whole chunk in
                # one request; later touches of any part of it are memory
                # copies.  A chunk the cache cannot hold is loaded as if
                # there were none: its spans if raw, else its ``local``
                # lattice.
                cached = (
                    cache is not None
                    and math.prod(unit.shape) * itemsize <= cache.config.byte_budget
                )
                try:
                    if codec is None and unit.crc is None and not cached:
                        # Nothing needs the whole chunk's bytes: fetch only
                        # the spans the lattice lands on, straight into place.
                        local_slab = Hyperslab(
                            start=tuple(sl.start for sl in local),
                            count=tuple(v.stop - v.start for v in vals),
                            stride=tuple(sl.step for sl in local),
                        )
                        self._read_spans(
                            local_slab,
                            unit.shape,
                            lambda offset, dest, at=unit.offset: backend.readinto_at(
                                at + offset, dest
                            ),
                            out[(*vals, ...)],  # a view, also of a 0-d out
                        )
                    elif codec is None or cached:
                        out[vals] = self._load_unit(
                            unit, cache if cached else None, local
                        )
                    else:
                        payload = backend.read_at(unit.offset, unit.nbytes)
                        yield unit, local, vals, payload
                except (ReproError, OSError) as exc:
                    yield unit, local, vals, exc
                    return

        def decode(item: tuple) -> None:
            unit, local, vals, payload = item
            if isinstance(payload, Exception):
                raise payload
            out[vals] = self._decode_unit(unit, self._verify_unit(unit, payload), local)

        _in_groups(fetched(), decode, pool)

    def _read_virtual(self, hs: Hyperslab, out: np.ndarray, pool: _Pool) -> None:
        file = self._file
        if not self._sources_tile:
            out[...] = self.fill
        handler = self.on_source_error
        # Only sources starting at or before the lattice's last index on the
        # last axis, and past a reach beyond its first, can overlap it; they
        # are visited in declaration order, so where sources overlap the
        # later one still wins.
        first = hs.start[-1]
        last = first + (hs.count[-1] - 1) * hs.stride[-1]
        starts, reach, order = self._source_index
        candidates = order[bisect_right(reach, first) : bisect_right(starts, last)]
        sources = self.virtual_sources
        for k in sorted(candidates):
            source = sources[k]
            ov = _strided_chunk_overlap(hs, source.dst_start, source.count)
            if ov is None:
                continue
            local, vals = ov
            dest = out[vals]
            dst_region = Hyperslab(
                start=tuple(
                    d + sl.start for d, sl in zip(source.dst_start, local)
                ),
                count=dest.shape,
                stride=tuple(sl.step for sl in local),
            )
            src_slab = source.src_slab_for(dst_region)
            try:
                src_ds = file._resolve_source(source.file).dataset(source.dataset)
                if self.dtype in (src_ds.dtype, out.dtype):
                    # The source writes its samples where the caller wants
                    # them: one cast at most, no intermediate.
                    src_ds._read_direct(src_slab, dest, pool)
                else:
                    # Three dtypes in play: the values still pass through
                    # this dataset's own.
                    values = np.empty(dest.shape, dtype=src_ds.dtype)
                    src_ds._read_direct(src_slab, values, pool)
                    dest[...] = values.astype(self.dtype)
            except (ReproError, OSError) as exc:
                if handler is None:
                    raise
                # Degraded-read bookkeeping is in unit-stride *bounding*
                # coordinates: gap spans must keep their raw meaning on the
                # virtual axis however sparsely the failed span was sampled.
                bounding = Hyperslab(
                    start=dst_region.start,
                    count=tuple(
                        (n - 1) * st + 1
                        for n, st in zip(dst_region.count, dst_region.stride)
                    ),
                    stride=(1,) * hs.ndim,
                )
                mask_fill = handler(source, bounding, exc)
                if mask_fill is None:
                    raise
                dest[...] = mask_fill

    # -- writing ---------------------------------------------------------------
    def __setitem__(self, selection: object, values: object) -> None:
        hs, squeeze = normalize_selection(selection, self.shape)
        arr = np.asarray(values, dtype=self.dtype)
        target_shape = selection_shape(hs, squeeze)
        arr = np.broadcast_to(arr, target_shape).reshape(hs.count)
        self.write_hyperslab(hs, arr)

    def write_hyperslab(self, hs: Hyperslab, values: np.ndarray) -> None:
        """Write ``values`` (shape ``hs.count``) into the hyperslab of a
        contiguous dataset without a checksum sidecar.

        A chunk and a checksummed block are stored once, with their CRC,
        when the dataset is created: a write that would re-store a chunk
        or re-checksum bytes nobody verified is a ``FormatError``, raised
        before any byte is written.  The values go over the read planner's
        spans at ``max_gap=0`` (a write cannot bridge a hole without
        reading it): each span is hole-free and all have one length, so
        span ``i`` takes the ``i``-th run of the C-ordered values.
        """
        if not self._file.writable:
            raise FormatError("file is not writable")
        if self.layout != LAYOUT_CONTIGUOUS:
            raise FormatError(
                f"{self.path}: writes are only supported on contiguous "
                f"datasets, not {self.layout}"
            )
        if CRC_ATTR in self.attrs:
            raise FormatError(
                f"{self.path}: a checksummed dataset is written once, at creation"
            )
        self._require_within(hs)
        values = np.asarray(values, dtype=self.dtype, order="C")
        if values.shape != hs.count:
            raise SelectionError(
                f"value shape {values.shape} != selection shape {hs.count}"
            )
        plan = plan_spans(hs, self.shape, 0)
        span = plan.span_len(plan.block) * self.itemsize
        base, write_at = int(self._meta["offset"]), self._file._backend.write_at
        data = memoryview(values.reshape(-1).view(np.uint8))
        for i, offset in enumerate((plan.offsets * self.itemsize).tolist()):
            write_at(base + offset, data[i * span : (i + 1) * span])

    def _store_chunks(
        self, items: Iterable[tuple[str, np.ndarray]], codec: "Codec | None"
    ) -> dict[str, int]:
        """Encode chunks and append them to the data region, in the order
        ``items`` lists them, pointing the chunk index at each; returns
        ``{key: crc32(payload)}`` for the stored payloads (what a sidecar
        CRC covers).  The one place a chunk is encoded: creation stores
        every chunk of the grid through here.  An item is ``(key, block)``.

        With two chunks or more and more than one CPU, the encodes overlap
        on a pool of this call's own (``zlib`` releases the GIL), through
        the one overlap loop :func:`_in_groups`: the calling thread encodes
        the first chunk of each group of ``workers + 1`` while the pool
        encodes the rest.  Each task copies its block and takes its
        payload's CRC.  Every write stays on the calling thread, in item
        order, so the file's bytes are what a serial loop writes, and the
        first chunk in that order that fails to encode raises its own
        exception (payloads already appended are dead bytes).  At most
        ``workers + 1`` chunks are encoded or waiting to be stored at once:
        ``items`` is drawn no further ahead.
        """

        def encode(item: tuple[str, np.ndarray]) -> tuple[bytes, int]:
            block = np.asarray(item[1], order="C")
            payload = block.tobytes() if codec is None else codec.encode(block)
            return payload, zlib.crc32(payload)

        crcs: dict[str, int] = {}

        def store(item: tuple[str, np.ndarray], encoded: tuple[bytes, int]) -> None:
            ckey, (payload, crc) = item[0], encoded
            self._meta["chunk_index"][ckey] = self._file._append_data(payload)
            if codec is not None:
                self._meta["chunk_enc"][ckey] = len(payload)
            crcs[ckey] = crc
            self._changed()

        with _Pool("encode") as pool:
            _in_groups(items, encode, pool, store)
        return crcs

    # -- conversion --------------------------------------------------------------
    def __array__(self, dtype: object = None, copy: object = None) -> np.ndarray:
        arr = self.read()
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return arr
