"""Dataset objects: N-dimensional arrays with three storage layouts.

* ``contiguous`` — one C-ordered buffer in the file; hyperslab reads fetch
  the spans the selection lands on, bridging only small holes.
* ``chunked`` — the array is split on a regular chunk grid, each chunk a
  contiguous buffer; reads open only the chunks a selection intersects.
* ``virtual`` — the data live in *other* files (see
  :mod:`repro.hdf5lite.virtual`); reads are delegated to the source files.

Each layout has one read implementation, and it is destination-passing:
:meth:`Dataset.read_direct` writes the selected samples into an array the
caller owns — any dtype (cast on assignment), any strides — and
:meth:`Dataset.read_hyperslab` is that into a fresh array.  Contiguous
spans land in place when the destination can take file bytes as they are
and pass through one bounded scratch buffer otherwise; chunks are
cast-assigned where they belong as they are verified and decoded; a
virtual dataset hands every source its own band of the caller's buffer
and pre-fills only when its sources do not tile it.  From the executor's
float64 block down to the page or chunk, every sample lands once.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import FormatError, ReproError, SelectionError
from repro.hdf5lite import dtype as _dtype
from repro.hdf5lite.attributes import Attributes
from repro.hdf5lite.checksum import (
    ChecksumInfo,
    checksum_info,
    update_chunk_crc,
    update_contiguous_crcs,
    verify_block,
)
from repro.hdf5lite.codecs import CODEC_ATTR, Codec, resolve_codec
from repro.hdf5lite.hyperslab import (
    COALESCE_GAP_BYTES,
    SPAN_SCRATCH_BYTES,
    Hyperslab,
    contiguous_runs,
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


def _chunk_key(coord: Sequence[int]) -> str:
    return ",".join(str(c) for c in coord)


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


_CODEC_UNSET = object()


class Dataset:
    """A dataset inside an hdf5lite file.

    Supports numpy-style basic indexing for reads (``ds[...]``,
    ``ds[2:5, ::3]``) and, for contiguous datasets in writable files,
    hyperslab writes (``ds[2:5] = values``).
    """

    def __init__(self, file: "File", path: str, meta: dict[str, Any]):
        self._file = file
        self.path = path
        self._meta = meta
        self.attrs = Attributes(
            meta.setdefault("attrs", {}),
            on_change=file._mark_dirty,
            writable=file.writable,
        )
        # Attributes copies the dict; rebind so mutations persist into meta.
        self._meta["attrs"] = self.attrs._data
        self._codec_resolved = _CODEC_UNSET

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

    @property
    def codec(self) -> "Codec | None":
        """The per-chunk codec named by the ``repro:codec`` attribute, or
        ``None`` for raw (uncompressed) storage.  Resolved once per
        Dataset object; unknown codec names raise ``FormatError`` at
        first data access, not at open."""
        if self._codec_resolved is _CODEC_UNSET:
            spec = (
                self.attrs.get(CODEC_ATTR)
                if self.layout == LAYOUT_CHUNKED
                else None
            )
            self._codec_resolved = resolve_codec(spec) if spec is not None else None
        return self._codec_resolved

    @cached_property
    def virtual_sources(self) -> tuple[VirtualSource, ...]:
        if self.layout != LAYOUT_VIRTUAL:
            return ()
        return tuple(VirtualSource.from_dict(raw) for raw in self._meta["sources"])

    @cached_property
    def _sources_tile(self) -> bool:
        """Whether the sources cover every element exactly once, so a read
        has nothing to pre-fill."""
        return sources_tile(self.shape, self.virtual_sources)

    def __repr__(self) -> str:
        return (
            f"<Dataset {self.path!r} shape={self.shape} dtype={self.dtype} "
            f"layout={self.layout}>"
        )

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of a 0-d dataset")
        return self.shape[0]

    # -- checksums ---------------------------------------------------------------
    def _checksums(self) -> "ChecksumInfo | None":
        """The parsed checksum sidecar when read-side verification applies.

        ``None`` when the dataset carries no sidecar or the file was opened
        with ``verify_checksums=False``.  Parsed once per Dataset object.
        """
        if not self._file.verify_checksums:
            return None
        cache = self._file._crc_cache
        if self.path in cache:
            return cache[self.path]
        info = checksum_info(self)
        cache[self.path] = info
        return info

    def _load_block(
        self, base: int, region_nbytes: int, info: "ChecksumInfo", block_idx: int
    ) -> bytes:
        """Read checksum block ``block_idx`` of the data region, verified."""
        bs = info.block_size
        off = block_idx * bs
        n = min(bs, region_nbytes - off)
        data = self._file._backend.read_at(base + off, n)
        if block_idx < len(info.crcs):
            verify_block(
                self._file.filename, base + off, data, info.crcs[block_idx],
                what=f"block {block_idx}",
            )
        return data

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
        """
        self._require_within(hs)
        if out.shape != hs.count:
            raise SelectionError(
                f"destination shape {out.shape} != selection shape {hs.count}"
            )
        layout = self.layout
        if layout == LAYOUT_CONTIGUOUS:
            self._read_contiguous(hs, out)
        elif layout == LAYOUT_CHUNKED:
            self._read_chunked(hs, out)
        elif layout == LAYOUT_VIRTUAL:
            self._read_virtual(hs, out)
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
        base = int(self._meta["offset"])
        region = self.nbytes
        backend = self._file._backend
        cache = self._file._cache
        info = self._checksums()
        if info is not None and info.chunked:
            info = None
        resident = None

        if cache is not None and cache.enabled:
            # Pages are page_size-aligned within the dataset's own data
            # region (byte 0 = ``base`` in the file), so a page never
            # straddles the metadata footer or another dataset.  Offsets
            # arrive ascending, so holding the last page makes it one
            # cache lookup per page per read, however many spans it serves.
            ps = cache.config.page_size
            held: list = [-1, b""]

            def page_at(page: int) -> bytes:
                if held[0] != page:
                    held[:] = page, self._load_page(cache, base, region, page, info)
                return held[1]

            def resident(offset: int) -> tuple[bytes, int]:
                page = offset // ps
                return page_at(page), page * ps

            def fetch(offset: int, dest: memoryview) -> None:
                end = offset + len(dest)
                for page in range(offset // ps, (end - 1) // ps + 1):
                    data = page_at(page)
                    lo = max(offset, page * ps)
                    hi = min(end, page * ps + len(data))
                    dest[lo - offset : hi - offset] = data[lo - page * ps : hi - page * ps]

        elif info is not None:
            fetch = self._verified_fetch(base, region, info)
        else:

            def fetch(offset: int, dest: memoryview) -> None:
                backend.readinto_at(base + offset, dest)

        self._read_spans(hs, self.shape, fetch, out, resident)

    def _verified_fetch(
        self, base: int, region: int, info: "ChecksumInfo"
    ) -> Callable[[int, memoryview], None]:
        """The uncached fetch with CRC verification.

        Bytes can only be verified at checksum-block granularity, so each
        requested range is served from whole blocks, each read and
        verified once per hyperslab read.  Ranges arrive in ascending
        offset order; blocks behind the current one are dropped to bound
        memory.
        """
        bs = info.block_size
        blocks: dict[int, bytes] = {}

        def fetch(lo: int, dest: memoryview) -> None:
            hi = lo + len(dest)
            first = lo // bs
            for stale in [b for b in blocks if b < first]:
                del blocks[stale]
            pos = 0
            for b in range(first, (hi - 1) // bs + 1):
                data = blocks.get(b)
                if data is None:
                    data = blocks[b] = self._load_block(base, region, info, b)
                blo = max(lo, b * bs)
                bhi = min(hi, b * bs + len(data))
                dest[pos : pos + (bhi - blo)] = data[blo - b * bs : bhi - b * bs]
                pos += bhi - blo

        return fetch

    def _load_page(
        self,
        cache: "BlockCache",
        base: int,
        region_nbytes: int,
        page: int,
        info: "ChecksumInfo | None",
    ) -> bytes:
        """Cache page ``page`` of the data region, loading it on a miss.

        A missing page costs one backend request for the whole page; hits
        cost nothing.  With a checksum sidecar (``info``), a missing page
        is assembled from verified checksum blocks — cache hits are
        verified-at-admission, so the warm path pays no CRC cost.
        """
        backend = self._file._backend
        stats = backend.iostats
        key = (self._file._cache_key, "page", base, page)
        data = cache.get(key, stats)
        if data is None:
            ps = cache.config.page_size
            page_off = page * ps
            page_len = min(ps, region_nbytes - page_off)
            if info is not None:
                data = self._page_from_blocks(
                    base, region_nbytes, info, page_off, page_len
                )
            else:
                data = backend.read_at(base + page_off, page_len)
            cache.put(key, data, stats)
        return data

    def _page_from_blocks(
        self,
        base: int,
        region_nbytes: int,
        info: "ChecksumInfo",
        page_off: int,
        page_len: int,
    ) -> bytes:
        """Assemble one cache page from verified checksum blocks.

        With the default configuration (page size == checksum block size,
        both region-aligned) this is exactly one backend read plus one CRC.
        """
        bs = info.block_size
        first = page_off // bs
        last = (page_off + page_len - 1) // bs
        parts = []
        for b in range(first, last + 1):
            data = self._load_block(base, region_nbytes, info, b)
            lo = max(page_off, b * bs)
            hi = min(page_off + page_len, b * bs + len(data))
            parts.append(data[lo - b * bs : hi - b * bs])
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def _touched_chunks(
        self, hs: Hyperslab
    ) -> Iterator[tuple[str, tuple[int, ...], tuple[slice, ...], tuple[slice, ...]]]:
        """Every stored chunk a selection lands on, in grid order:
        ``(key, chunk_count, local, vals)`` with ``local``/``vals`` as
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
        index: dict[str, int] = self._meta["chunk_index"]
        lo = [s // c for s, c in zip(hs.start, chunks)]
        hi = [
            (s + (n - 1) * st) // c
            for s, n, st, c in zip(hs.start, hs.count, hs.stride, chunks)
        ]
        coord = list(lo)
        while True:
            chunk_start = tuple(ci * c for ci, c in zip(coord, chunks))
            chunk_count = tuple(
                min(c, dim - cs)
                for c, cs, dim in zip(chunks, chunk_start, self.shape)
            )
            overlap = _strided_chunk_overlap(hs, chunk_start, chunk_count)
            if overlap is not None:
                ckey = _chunk_key(coord)
                if ckey not in index:
                    raise FormatError(f"missing chunk {ckey} in {self.path}")
                yield ckey, chunk_count, *overlap
            # Odometer over chunk grid coordinates.
            dim_idx = len(coord) - 1
            while dim_idx >= 0:
                coord[dim_idx] += 1
                if coord[dim_idx] <= hi[dim_idx]:
                    break
                coord[dim_idx] = lo[dim_idx]
                dim_idx -= 1
            if dim_idx < 0:
                break

    def _read_chunked(self, hs: Hyperslab, out: np.ndarray) -> None:
        codec = self.codec
        info = self._checksums()
        chunk_crcs = info.chunk_crcs if info is not None and info.chunked else None
        index: dict[str, int] = self._meta["chunk_index"]
        itemsize = self.itemsize
        backend = self._file._backend
        cache = self._file._cache
        if cache is not None and not cache.enabled:
            cache = None
        for ckey, chunk_count, local, vals in self._touched_chunks(hs):
            crc_expected = chunk_crcs.get(ckey) if chunk_crcs is not None else None
            chunk_nbytes = int(np.prod(chunk_count, dtype=np.int64)) * itemsize
            # Chunk-granular caching: a miss loads the whole chunk in one
            # request; later touches of any part of it are memory copies.
            cached = cache is not None and chunk_nbytes <= cache.config.byte_budget
            if codec is None and crc_expected is None and not cached:
                # Nothing needs the whole chunk's bytes: fetch only the
                # spans the lattice lands on, straight into their place.
                local_slab = Hyperslab(
                    start=tuple(sl.start for sl in local),
                    count=tuple(v.stop - v.start for v in vals),
                    stride=tuple(sl.step for sl in local),
                )
                self._read_spans(
                    local_slab,
                    chunk_count,
                    lambda offset, dest, at=int(index[ckey]): backend.readinto_at(
                        at + offset, dest
                    ),
                    out[vals],
                )
            else:
                chunk_arr = self._load_chunk(
                    codec, ckey, chunk_count, crc_expected,
                    cache if cached else None,
                )
                out[vals] = chunk_arr[local]

    def _encoded_nbytes(self, ckey: str) -> int:
        """On-disk payload size of one encoded chunk (``chunk_enc``)."""
        enc = self._meta.get("chunk_enc", {})
        if ckey not in enc:
            raise FormatError(
                f"missing encoded size for chunk {ckey} in {self.path}"
            )
        return int(enc[ckey])

    def _load_chunk(
        self,
        codec: "Codec | None",
        ckey: str,
        chunk_count: tuple[int, ...],
        crc_expected: int | None,
        cache: "BlockCache | None",
    ) -> np.ndarray:
        """One whole stored chunk as an array, via ``cache`` when given.

        The cache holds *decoded* bytes under one ``(file, "chunk",
        offset)`` key whether or not the chunk is stored encoded, so
        decompression runs once per cached block; the CRC covers the
        stored payload and is checked before any decode, only on the miss
        path.
        """
        backend = self._file._backend
        chunk_offset = int(self._meta["chunk_index"][ckey])
        key = (self._file._cache_key, "chunk", chunk_offset)
        if cache is not None:
            raw = cache.get(key, backend.iostats)
            if raw is not None:
                return np.frombuffer(raw, dtype=self.dtype).reshape(chunk_count)
        if codec is not None:
            stored_nbytes = self._encoded_nbytes(ckey)
        else:
            stored_nbytes = int(np.prod(chunk_count, dtype=np.int64)) * self.itemsize
        payload = backend.read_at(chunk_offset, stored_nbytes)
        if crc_expected is not None:
            verify_block(
                self._file.filename, chunk_offset, payload,
                crc_expected, what=f"chunk {ckey}",
            )
        if codec is not None:
            arr = codec.decode(payload, chunk_count, self.dtype)
        else:
            arr = np.frombuffer(payload, dtype=self.dtype).reshape(chunk_count)
        if cache is not None:
            cache.put(
                key, payload if codec is None else arr.tobytes(), backend.iostats
            )
        return arr

    def _read_virtual(self, hs: Hyperslab, out: np.ndarray) -> None:
        file = self._file
        fill = self._meta.get("fill", 0)
        if not self._sources_tile:
            out[...] = fill
        handler = file.on_source_error
        skip = file.skip_sources
        for source in self.virtual_sources:
            ov = _strided_chunk_overlap(hs, source.dst_start, source.count)
            if ov is None:
                continue
            local, vals = ov
            dest = out[vals]
            if skip and source.file in skip:
                # Blacklisted by a previous degraded read: don't touch the
                # source again, mask its span (nothing pre-filled it when
                # the sources tile).
                dest[...] = fill if file.source_fill is None else file.source_fill
                continue
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
                    src_ds.read_direct(src_slab, dest)
                else:
                    # Three dtypes in play: the values still pass through
                    # this dataset's own.
                    dest[...] = src_ds.read_hyperslab(src_slab).astype(self.dtype)
            except (ReproError, OSError, KeyError) as exc:
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
        """Write ``values`` (shape ``hs.count``) into the hyperslab."""
        if not self._file.writable:
            raise FormatError("file is not writable")
        if self.layout not in (LAYOUT_CONTIGUOUS, LAYOUT_CHUNKED):
            raise FormatError(
                f"writes are only supported on contiguous or chunked "
                f"datasets, not {self.layout}"
            )
        self._require_within(hs)
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if values.shape != hs.count:
            raise SelectionError(
                f"value shape {values.shape} != selection shape {hs.count}"
            )
        if self.layout == LAYOUT_CHUNKED:
            self._write_chunked(hs, values)
            return
        base = int(self._meta["offset"])
        itemsize = self.itemsize
        flat = values.reshape(-1).view(np.uint8)
        view = memoryview(flat).cast("B")
        cursor = 0
        backend = self._file._backend
        byte_lo, byte_hi = None, 0
        for elem_offset, elem_count in contiguous_runs(hs, self.shape):
            nbytes = elem_count * itemsize
            backend.write_at(
                base + elem_offset * itemsize,
                view[cursor : cursor + nbytes],
            )
            cursor += nbytes
            run_lo = elem_offset * itemsize
            byte_lo = run_lo if byte_lo is None else min(byte_lo, run_lo)
            byte_hi = max(byte_hi, run_lo + nbytes)
        self._file._invalidate_cache()
        if byte_lo is not None:
            # Keep any checksum sidecar true to the new bytes (writers
            # update it even when read-side verification is off).
            update_contiguous_crcs(self, byte_lo, byte_hi)

    def _write_chunked(self, hs: Hyperslab, values: np.ndarray) -> None:
        """Read-modify-rewrite every chunk the selection touches.

        On codec datasets the touched chunk is decoded, patched, and
        re-encoded; a payload that grew past its old slot is appended to
        the data region and the chunk index repointed (the old bytes are
        dead — acceptable for an append-only format).  Each stored
        payload refreshes its sidecar CRC, so checksums always cover the
        encoded bytes actually on disk.
        """
        codec = self.codec
        for ckey, chunk_count, local_sel, vals_sel in self._touched_chunks(hs):
            chunk_arr = self._writable_chunk(ckey, chunk_count, codec)
            chunk_arr[local_sel] = values[vals_sel]
            self._store_chunk(ckey, chunk_arr, codec)
        if hs.size:
            self._file._mark_dirty()
            self._file._invalidate_cache()

    def _writable_chunk(
        self, ckey: str, chunk_count: tuple[int, ...], codec: "Codec | None"
    ) -> np.ndarray:
        """The chunk's current contents as a writable array (CRC-verified
        when the file verifies reads — a read-modify-write must not
        silently launder corruption into a fresh checksum)."""
        info = self._checksums()
        crc = (
            info.chunk_crcs.get(ckey)
            if info is not None and info.chunked
            else None
        )
        arr = self._load_chunk(codec, ckey, chunk_count, crc, None)
        return arr if arr.flags.writeable else arr.copy()

    def _store_chunk(
        self, ckey: str, chunk_arr: np.ndarray, codec: "Codec | None"
    ) -> None:
        backend = self._file._backend
        index: dict[str, int] = self._meta["chunk_index"]
        chunk_offset = int(index[ckey])
        chunk_arr = np.ascontiguousarray(chunk_arr)
        if codec is None:
            payload = chunk_arr.tobytes()
            backend.write_at(chunk_offset, payload)
        else:
            payload = codec.encode(chunk_arr)
            if len(payload) <= self._encoded_nbytes(ckey):
                backend.write_at(chunk_offset, payload)
            else:
                chunk_offset = self._file._append_data(payload)
                index[ckey] = chunk_offset
            self._meta["chunk_enc"][ckey] = len(payload)
        update_chunk_crc(self, ckey, payload)

    # -- streaming ---------------------------------------------------------------
    def iter_blocks(self, rows_per_block: int):
        """Stream the dataset as ``(row_slice, array)`` row blocks.

        Lets callers process arrays larger than memory (RCA construction,
        whole-day scans) one bounded block at a time.
        """
        if rows_per_block < 1:
            raise SelectionError("rows_per_block must be >= 1")
        if self.ndim == 0:
            raise SelectionError("cannot iterate a 0-d dataset")
        rows = self.shape[0]
        for start in range(0, rows, rows_per_block):
            stop = min(rows, start + rows_per_block)
            hs = Hyperslab(
                (start,) + (0,) * (self.ndim - 1),
                (stop - start,) + self.shape[1:],
                (1,) * self.ndim,
            )
            yield slice(start, stop), self.read_hyperslab(hs)

    # -- conversion --------------------------------------------------------------
    def __array__(self, dtype: object = None, copy: object = None) -> np.ndarray:
        arr = self.read()
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return arr
