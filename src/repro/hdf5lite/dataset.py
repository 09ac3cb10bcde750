"""Dataset objects: N-dimensional arrays with three storage layouts.

* ``contiguous`` — one C-ordered buffer in the file; hyperslab reads fetch
  the spans the selection lands on, bridging only small holes.
* ``chunked`` — the array is split on a regular chunk grid, each chunk a
  contiguous buffer; reads open only the chunks a selection intersects.
* ``virtual`` — the data live in *other* files (see
  :mod:`repro.hdf5lite.virtual`); reads are delegated to the source files.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

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
from repro.hdf5lite.virtual import VirtualSource

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
    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self._meta["shape"])

    @property
    def ndim(self) -> int:
        return len(self._meta["shape"])

    @property
    def size(self) -> int:
        return int(np.prod(self._meta["shape"], dtype=np.int64))

    @property
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

    @property
    def virtual_sources(self) -> list[VirtualSource]:
        if self.layout != LAYOUT_VIRTUAL:
            return []
        return [VirtualSource.from_dict(raw) for raw in self._meta["sources"]]

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
        if not hs.within(self.shape):
            raise SelectionError(
                f"hyperslab {hs} outside dataset shape {self.shape}"
            )
        layout = self.layout
        if layout == LAYOUT_CONTIGUOUS:
            return self._read_contiguous(hs)
        if layout == LAYOUT_CHUNKED:
            return self._read_chunked(hs)
        if layout == LAYOUT_VIRTUAL:
            return self._read_virtual(hs)
        raise FormatError(f"unknown dataset layout {layout!r}")

    def _read_spans(
        self,
        hs: Hyperslab,
        shape: Sequence[int],
        fetch: Callable[[int, memoryview], None],
    ) -> np.ndarray:
        """Read ``hs`` of a C-ordered byte region laid out as ``shape``.

        The one place a selection becomes requests: :func:`plan_spans`
        bridges holes up to ``COALESCE_GAP_BYTES`` and ``fetch(byte_offset,
        dest)`` — the only thing the contiguous and raw-chunk read paths
        differ in — fills ``dest`` with the region's bytes from
        ``byte_offset`` on.  Spans arrive in ascending offset order.
        """
        itemsize = self.itemsize
        out = np.empty(hs.count, dtype=self.dtype)
        plan = plan_spans(
            hs, shape, COALESCE_GAP_BYTES // itemsize, SPAN_SCRATCH_BYTES // itemsize
        )
        gather_spans(plan, out, fetch)
        return out

    def _read_contiguous(self, hs: Hyperslab) -> np.ndarray:
        base = int(self._meta["offset"])
        region = self.nbytes
        backend = self._file._backend
        cache = self._file._cache
        info = self._checksums()
        if info is not None and info.chunked:
            info = None

        if cache is not None and cache.enabled:

            def fetch(offset: int, dest: memoryview) -> None:
                self._page_read(cache, base, region, offset, dest, info)

        elif info is not None:
            fetch = self._verified_fetch(base, region, info)
        else:

            def fetch(offset: int, dest: memoryview) -> None:
                backend.readinto_at(base + offset, dest)

        return self._read_spans(hs, self.shape, fetch)

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

    def _page_read(
        self,
        cache: "BlockCache",
        base: int,
        region_nbytes: int,
        rel_offset: int,
        dest: memoryview,
        info: "ChecksumInfo | None" = None,
    ) -> None:
        """Fill ``dest`` with dataset bytes ``[rel_offset, rel_offset+len)``
        via the page cache.

        Pages are ``page_size``-aligned within the dataset's own data
        region (byte 0 = ``base`` in the file), so a page never straddles
        the metadata footer or another dataset.  A missing page costs one
        backend request for the whole page; hits cost nothing.  With a
        checksum sidecar (``info``), a missing page is assembled from
        verified checksum blocks — cache hits are verified-at-admission,
        so the warm path pays no CRC cost.
        """
        backend = self._file._backend
        stats = backend.iostats
        ps = cache.config.page_size
        nbytes = len(dest)
        first = rel_offset // ps
        last = (rel_offset + nbytes - 1) // ps
        for page in range(first, last + 1):
            page_off = page * ps
            page_len = min(ps, region_nbytes - page_off)
            key = (self._file._cache_key, "page", base, page)
            data = cache.get(key, stats)
            if data is None:
                if info is not None:
                    data = self._page_from_blocks(
                        base, region_nbytes, info, page_off, page_len
                    )
                else:
                    buf = bytearray(page_len)
                    backend.readinto_at(base + page_off, memoryview(buf))
                    data = bytes(buf)
                cache.put(key, data, stats)
            lo = max(rel_offset, page_off)
            hi = min(rel_offset + nbytes, page_off + page_len)
            dest[lo - rel_offset : hi - rel_offset] = data[lo - page_off : hi - page_off]

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

    def _read_chunked(self, hs: Hyperslab) -> np.ndarray:
        chunks = self.chunks
        assert chunks is not None
        codec = self.codec
        info = self._checksums()
        chunk_crcs = info.chunk_crcs if info is not None and info.chunked else None
        out = np.empty(hs.count, dtype=self.dtype)
        if out.size == 0:
            return out
        index: dict[str, int] = self._meta["chunk_index"]
        itemsize = self.itemsize
        backend = self._file._backend
        cache = self._file._cache
        if cache is not None and not cache.enabled:
            cache = None

        # Chunk-grid bounds of the selection *lattice*: the last touched
        # element along each axis sits at start + (count-1)*stride, so a
        # strided selection visits (and pays for) only the chunks its
        # lattice actually lands on.
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
                local, vals = overlap
                ckey = _chunk_key(coord)
                if ckey not in index:
                    raise FormatError(f"missing chunk {ckey} in {self.path}")
                chunk_offset = int(index[ckey])
                crc_expected = (
                    chunk_crcs.get(ckey) if chunk_crcs is not None else None
                )
                crc_what = f"chunk {ckey}"
                chunk_nbytes = (
                    int(np.prod(chunk_count, dtype=np.int64)) * itemsize
                )
                if codec is not None:
                    chunk_arr = self._load_codec_chunk(
                        codec, ckey, chunk_offset, chunk_count,
                        crc_expected, cache,
                    )
                    out[vals] = chunk_arr[local]
                elif cache is not None and chunk_nbytes <= cache.config.byte_budget:
                    # Chunk-granular caching: a miss loads the whole chunk in
                    # one request (run-coalescing for free); later touches of
                    # any part of the chunk are memory copies.
                    key = (self._file._cache_key, "chunk", chunk_offset)
                    raw = cache.get(key, backend.iostats)
                    if raw is None:
                        buf = bytearray(chunk_nbytes)
                        backend.readinto_at(chunk_offset, memoryview(buf))
                        raw = bytes(buf)
                        if crc_expected is not None:
                            verify_block(
                                self._file.filename, chunk_offset, raw,
                                crc_expected, what=crc_what,
                            )
                        cache.put(key, raw, backend.iostats)
                    chunk_arr = np.frombuffer(raw, dtype=self.dtype).reshape(
                        chunk_count
                    )
                    out[vals] = chunk_arr[local]
                elif crc_expected is not None:
                    # Verification needs the whole chunk's bytes; read it
                    # once, verify, slice in memory.
                    raw = backend.read_at(chunk_offset, chunk_nbytes)
                    verify_block(
                        self._file.filename, chunk_offset, raw,
                        crc_expected, what=crc_what,
                    )
                    chunk_arr = np.frombuffer(raw, dtype=self.dtype).reshape(
                        chunk_count
                    )
                    out[vals] = chunk_arr[local]
                else:
                    # Raw uncached chunk: fetch only the spans the lattice
                    # lands on, not the whole chunk.
                    local_slab = Hyperslab(
                        start=tuple(sl.start for sl in local),
                        count=tuple(v.stop - v.start for v in vals),
                        stride=tuple(sl.step for sl in local),
                    )
                    out[vals] = self._read_spans(
                        local_slab,
                        chunk_count,
                        lambda offset, dest, at=chunk_offset: backend.readinto_at(
                            at + offset, dest
                        ),
                    )
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
        return out

    def _encoded_nbytes(self, ckey: str) -> int:
        """On-disk payload size of one encoded chunk (``chunk_enc``)."""
        enc = self._meta.get("chunk_enc", {})
        if ckey not in enc:
            raise FormatError(
                f"missing encoded size for chunk {ckey} in {self.path}"
            )
        return int(enc[ckey])

    def _load_codec_chunk(
        self,
        codec: "Codec",
        ckey: str,
        chunk_offset: int,
        chunk_count: tuple[int, ...],
        crc_expected: int | None,
        cache: "BlockCache | None",
    ) -> np.ndarray:
        """One decoded chunk, via the cache when possible.

        The cache holds *decoded* bytes under the same ``(file, "chunk",
        offset)`` key raw chunks use, so decompression runs once per
        cached block; the CRC covers the *encoded* payload and is checked
        before decode, only on the miss path.
        """
        backend = self._file._backend
        enc_nbytes = self._encoded_nbytes(ckey)
        dec_nbytes = (
            int(np.prod(chunk_count, dtype=np.int64)) * self.itemsize
        )
        if cache is not None and dec_nbytes <= cache.config.byte_budget:
            cache_key = (self._file._cache_key, "chunk", chunk_offset)
            raw = cache.get(cache_key, backend.iostats)
            if raw is not None:
                return np.frombuffer(raw, dtype=self.dtype).reshape(chunk_count)
            payload = backend.read_at(chunk_offset, enc_nbytes)
            if crc_expected is not None:
                verify_block(
                    self._file.filename, chunk_offset, payload,
                    crc_expected, what=f"chunk {ckey}",
                )
            arr = np.ascontiguousarray(
                codec.decode(payload, chunk_count, self.dtype)
            )
            cache.put(cache_key, arr.tobytes(), backend.iostats)
            return arr
        payload = backend.read_at(chunk_offset, enc_nbytes)
        if crc_expected is not None:
            verify_block(
                self._file.filename, chunk_offset, payload,
                crc_expected, what=f"chunk {ckey}",
            )
        return codec.decode(payload, chunk_count, self.dtype)

    def _read_virtual(self, hs: Hyperslab) -> np.ndarray:
        fill = self._meta.get("fill", 0)
        out = np.full(hs.count, fill, dtype=self.dtype)
        handler = self._file.on_source_error
        skip = self._file.skip_sources
        unit = all(s == 1 for s in hs.stride)
        for source in self.virtual_sources:
            ov = _strided_chunk_overlap(hs, source.dst_start, source.count)
            if ov is None:
                continue
            local, vals = ov
            dst_region = Hyperslab(
                start=tuple(
                    d + sl.start for d, sl in zip(source.dst_start, local)
                ),
                count=tuple(v.stop - v.start for v in vals),
                stride=tuple(sl.step for sl in local),
            )
            # Degraded-read bookkeeping stays in unit-stride *bounding*
            # coordinates: gap spans must keep their raw meaning on the
            # virtual axis however sparsely the failed span was sampled.
            if unit:
                overlap = dst_region
            else:
                overlap = Hyperslab(
                    start=dst_region.start,
                    count=tuple(
                        (n - 1) * st + 1
                        for n, st in zip(dst_region.count, dst_region.stride)
                    ),
                    stride=tuple(1 for _ in dst_region.start),
                )
            if skip and source.file in skip:
                # Blacklisted by a previous degraded read: don't touch the
                # source again, leave its span masked.
                if self._file.source_fill is not None:
                    out[vals] = self._file.source_fill
                continue
            src_slab = source.src_slab_for(dst_region)
            try:
                src_file = self._file._resolve_source(source.file)
                src_ds = src_file.dataset(source.dataset)
                piece = src_ds.read_hyperslab(src_slab)
            except (ReproError, OSError, KeyError) as exc:
                if handler is None:
                    raise
                mask_fill = handler(source, overlap, exc)
                if mask_fill is None:
                    raise
                out[vals] = mask_fill
                continue
            out[vals] = piece.astype(self.dtype, copy=False)
        return out

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
        if not hs.within(self.shape):
            raise SelectionError(
                f"hyperslab {hs} outside dataset shape {self.shape}"
            )
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
        if hs.size == 0:
            return
        chunks = self.chunks
        assert chunks is not None
        codec = self.codec
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
            sel = _strided_chunk_overlap(hs, chunk_start, chunk_count)
            if sel is not None:
                local_sel, vals_sel = sel
                ckey = _chunk_key(coord)
                if ckey not in index:
                    raise FormatError(f"missing chunk {ckey} in {self.path}")
                chunk_arr = self._chunk_for_update(ckey, chunk_count, codec)
                chunk_arr[local_sel] = values[vals_sel]
                self._store_chunk(ckey, chunk_arr, codec)
            dim_idx = len(coord) - 1
            while dim_idx >= 0:
                coord[dim_idx] += 1
                if coord[dim_idx] <= hi[dim_idx]:
                    break
                coord[dim_idx] = lo[dim_idx]
                dim_idx -= 1
            if dim_idx < 0:
                break
        self._file._mark_dirty()
        self._file._invalidate_cache()

    def _chunk_for_update(
        self, ckey: str, chunk_count: tuple[int, ...], codec: "Codec | None"
    ) -> np.ndarray:
        """The chunk's current contents as a writable array (CRC-verified
        when the file verifies reads — a read-modify-write must not
        silently launder corruption into a fresh checksum)."""
        backend = self._file._backend
        chunk_offset = int(self._meta["chunk_index"][ckey])
        info = self._checksums()
        crc = (
            info.chunk_crcs.get(ckey)
            if info is not None and info.chunked
            else None
        )
        if codec is not None:
            payload = backend.read_at(chunk_offset, self._encoded_nbytes(ckey))
            if crc is not None:
                verify_block(
                    self._file.filename, chunk_offset, payload, crc,
                    what=f"chunk {ckey}",
                )
            arr = np.asarray(codec.decode(payload, chunk_count, self.dtype))
            return arr if arr.flags.writeable else arr.copy()
        nbytes = int(np.prod(chunk_count, dtype=np.int64)) * self.itemsize
        raw = backend.read_at(chunk_offset, nbytes)
        if crc is not None:
            verify_block(
                self._file.filename, chunk_offset, raw, crc,
                what=f"chunk {ckey}",
            )
        return np.frombuffer(raw, dtype=self.dtype).reshape(chunk_count).copy()

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
