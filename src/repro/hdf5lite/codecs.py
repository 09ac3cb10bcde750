"""Per-chunk compression codecs for hdf5lite datasets.

The paper's whole I/O argument (§IV, Figs. 6-9) is about bytes moved per
analysis pass; this module shrinks those bytes at the storage layer.  A
chunked dataset may carry a ``repro:codec`` attribute naming the codec
its chunks were encoded with — files without the attribute hold raw
chunk bytes and stay readable by every pre-codec reader unchanged.

Codecs are small objects with ``encode(array) -> bytes`` and
``decode(payload, shape, dtype, select=None, verified=False) -> array``;
they are looked up from a registry by *spec string* so the choice
round-trips through the attribute footer.  The selection is an input to
the decode stage: a reader that wants channels [24, 48) of a chunk, or
every eighth sample, says so, and pays for what that needs of the
payload rather than for the chunk (:meth:`Codec.decode` states the
contract once):

``delta-zlib[:level]``
    Lossless.  The chunk's raw bit patterns (viewed as unsigned
    integers) are delta-encoded with a previous-sample predictor —
    modular arithmetic, so the inverse ``cumsum`` is exact for every
    input — then deflated.  Best for slowly varying integer-like data.
``transpose-zlib[:level]``
    Lossless.  Bitshuffle-style *byte* transpose: the i-th byte of every
    element is grouped into one *plane*, and each plane is deflated by
    the cheapest method that is not larger — decided per 32 KiB block of
    a plane from a strided probe: **stored** for noise (the mantissa
    planes of float samples deflate to 1.0002x; stored blocks cost a
    memcpy), **Huffman-only** where a skewed histogram is all there is,
    **RLE** where the only matches are runs (dead channels and NaN gaps
    inside a noisy plane), and **LZ at the configured level** wherever
    it buys bytes — the sign/exponent plane of float DAS samples, where
    the level the caller chose is honoured in full.  The segments are
    joined into **one ordinary zlib stream**, so the payload decodes
    with ``zlib.decompress`` + untranspose: files written before the
    planes were told apart read unchanged, and files written now are
    readable by those older readers.  The default lossless choice for
    floats.  Decoding a CRC-verified payload reads the leading stored
    blocks where they lie (three planes of four for float32 DAS chunks
    never pass through ``zlib``), inflates the rest only as far as the
    selection's last row, and untransposes only the selected samples.
``quantize:<tol>[:level]``
    Controlled loss (DASPack direction): finite values are quantized to
    a declared absolute tolerance — ``|decoded - original| <= tol`` —
    and the resulting integer stream is delta-encoded (the residual
    stream of a previous-sample predictor) then deflated.  Non-finite
    samples (the NaN fills of degraded reads) are preserved bit-exactly
    via a side list.

Composition with the fault/perf layers happens in
:mod:`repro.hdf5lite.dataset`: CRC32 sidecars checksum the *encoded*
bytes (corruption is caught before decode), and the
:class:`~repro.hdf5lite.cache.BlockCache` admits *decoded* chunks, so
decompression runs once per cached block and the warm path pays zero
CPU for compression.
"""

from __future__ import annotations

import bisect
import itertools
import struct
import zlib
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigError, FormatError, SelectionError

__all__ = [
    "CODEC_ATTR",
    "Codec",
    "DeltaZlibCodec",
    "TransposeZlibCodec",
    "QuantizeCodec",
    "available_codecs",
    "register_codec",
    "resolve_codec",
]

#: Dataset attribute naming the codec its chunks are encoded with.
CODEC_ATTR = "repro:codec"

#: Default deflate level (zlib's own default trade-off).
DEFAULT_LEVEL = 6

_UINT_FOR_ITEMSIZE = {
    1: np.uint8,
    2: np.uint16,
    4: np.uint32,
    8: np.uint64,
}


def _element_count(shape: Sequence[int]) -> int:
    return int(np.prod(shape, dtype=np.int64)) if len(shape) else 1


def _check_level(level: int) -> int:
    level = int(level)
    if not 0 <= level <= 9:
        raise ConfigError(f"zlib level must be in [0, 9], got {level}")
    return level


def _inflate(payload: bytes, expected: int, what: str, exact: bool = True) -> bytes:
    """Inflate a zlib stream that must hold ``expected`` bytes (at most
    that many with ``exact=False``).

    The stream is never trusted for its own size: at most ``expected + 1``
    bytes are produced, so an over-long, truncated or trailing-garbage
    payload (a hostile file can carry a CRC to match) raises
    :class:`~repro.errors.FormatError` without the allocation it asks for.
    """
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload, expected + 1)
    except zlib.error as exc:
        raise FormatError(f"undecodable {what} chunk: {exc}") from exc
    if not inflater.eof or inflater.unused_data:
        raise FormatError(
            f"{what} chunk is truncated, holds more than {expected} bytes "
            f"or carries trailing bytes"
        )
    if len(raw) > expected or (exact and len(raw) != expected):
        raise FormatError(
            f"{what} chunk holds {len(raw)} bytes, expected {expected}"
        )
    return raw


def _lattice(
    shape: Sequence[int], select: "Sequence[slice] | None"
) -> tuple[tuple[int, ...], tuple[slice, ...], tuple[int, ...]]:
    """A chunk's shape, the lattice ``select`` picks of it and how many
    points that is per axis, all of rank >= 1 (a rank-0 chunk is one row)
    and the slices spelled out: integer ``start < stop`` (``0, 0`` on an
    axis nothing is picked from), ``step >= 1``.  ``None`` selects the
    chunk."""
    shape = tuple(int(dim) for dim in shape) or (1,)
    select = tuple(select or ())
    if len(select) > len(shape):
        raise SelectionError(f"selection {select} has more axes than chunk {shape}")
    select += (slice(None),) * (len(shape) - len(select))
    picked, counts = [], []
    for sl, dim in zip(select, shape):
        if not isinstance(sl, slice) or (sl.step is not None and sl.step < 1):
            raise SelectionError(
                f"a chunk selection takes slices with positive steps, got {sl!r}"
            )
        points = range(*sl.indices(dim))
        counts.append(len(points))
        picked.append(
            slice(points[0], points[-1] + 1, points.step) if points else slice(0, 0, 1)
        )
    return shape, tuple(picked), tuple(counts)


class Codec:
    """One per-chunk encoding.

    ``spec`` is the round-trippable registry string stored in the
    dataset's ``repro:codec`` attribute; ``lossless`` declares whether
    ``decode(encode(a))`` is bit-identical to ``a`` (readers surface it,
    e.g. ``das_inspect``).

    A codec implements ``encode`` and ``decode`` — all five parameters of
    it: readers pass ``select`` and ``verified`` by keyword on every call.
    One with nothing to gain from the selection implements
    :meth:`_decode_whole` instead and inherits ``decode``.

    ``encode`` is called from several threads at once — a dataset's
    chunks are encoded concurrently — so it must keep no per-call state
    on the instance: everything one call needs lives in its locals.
    """

    spec: str = ""
    lossless: bool = True

    def encode(self, arr: np.ndarray) -> bytes:
        raise NotImplementedError

    def decode(
        self,
        payload: bytes,
        shape: Sequence[int],
        dtype: object,
        select: "Sequence[slice] | None" = None,
        verified: bool = False,
    ) -> np.ndarray:
        """The ``select`` lattice of the ``shape`` chunk ``payload`` holds:
        ``decode(payload, shape, dtype)[select]`` as a fresh C-contiguous
        writable array — ``select`` a tuple of positive-step slices (what
        ``Dataset`` intersects a read with a chunk into), ``None`` for
        the whole chunk.

        What is verified is what is delivered.  ``verified=True`` says
        every byte of ``payload`` has just passed a check at least as
        strong as the stream's own (the reader's CRC32 sidecar covers the
        stored bytes, the Adler-32 inside them the same bytes once
        inflated): a decoder may then read only as far into the payload as
        the selection's last leading-axis row needs, and looks at the
        stream's end, trailing bytes and Adler-32 only if it inflates that
        far.  ``verified=False`` — no sidecar, ``verify_checksums=False``,
        any direct call — inflates the whole stream first: Adler-32, exact
        length, nothing trailing.  Either way every structural defect met
        is a :class:`~repro.errors.FormatError` in time and memory bounded
        by ``shape``; no allocation is sized by a number the payload names.

        This default is for codecs whose samples depend on all earlier
        ones (sequential predictors): the chunk is decoded whole from a
        stream checked to its end, whatever ``verified`` says, and the
        lattice copied out of it.
        """
        full, lattice, counts = _lattice(shape, select)
        whole = self._decode_whole(payload, shape, np.dtype(dtype))
        if select is None:
            return whole
        return whole.reshape(full)[lattice].copy().reshape(counts[: len(shape)])

    def _decode_whole(
        self, payload: bytes, shape: Sequence[int], dtype: np.dtype
    ) -> np.ndarray:
        """The ``shape`` chunk, fresh and writable, from a payload inflated
        to its end (:func:`_inflate`)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "lossless" if self.lossless else "lossy"
        return f"<{type(self).__name__} {self.spec!r} ({kind})>"


class DeltaZlibCodec(Codec):
    """Lossless: previous-sample delta over the flattened chunk's bit
    patterns (modular unsigned arithmetic), then deflate."""

    def __init__(self, level: int = DEFAULT_LEVEL):
        self.level = _check_level(level)
        self.spec = "delta-zlib" if self.level == DEFAULT_LEVEL else f"delta-zlib:{self.level}"

    def encode(self, arr: np.ndarray) -> bytes:
        arr = np.ascontiguousarray(arr)
        utype = _UINT_FOR_ITEMSIZE.get(arr.dtype.itemsize)
        if utype is None:
            return zlib.compress(arr.reshape(-1).view(np.uint8), self.level)
        flat = arr.reshape(-1).view(utype)
        delta = np.empty_like(flat)
        if flat.size:
            delta[0] = flat[0]
            np.subtract(flat[1:], flat[:-1], out=delta[1:])
        return zlib.compress(delta, self.level)

    def _decode_whole(
        self, payload: bytes, shape: Sequence[int], dtype: np.dtype
    ) -> np.ndarray:
        raw = _inflate(
            payload, _element_count(shape) * dtype.itemsize, "delta-zlib"
        )
        utype = _UINT_FOR_ITEMSIZE.get(dtype.itemsize)
        if utype is None:
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        delta = np.frombuffer(raw, dtype=utype)
        # cumsum in the same modular unsigned arithmetic inverts the delta.
        flat = np.cumsum(delta, dtype=utype)
        return flat.view(dtype).reshape(shape)


#: Bytes of one byte plane that get one deflate method between them.
#: Small enough that a band of dead channels is told from its noisy
#: neighbours, large enough that the probe's fixed cost stays under a
#: tenth of what deflating the block would.
_BLOCK_BYTES = 32 * 1024
#: The probe reads ``_PROBE_PIECE`` bytes out of every ``_PROBE_STRIDE``
#: of a block: an eighth of it, and no dead run of 512 bytes or more
#: (a time gap across the rows of a block) falls between two pieces.
_PROBE_PIECE = 64
_PROBE_STRIDE = 512

#: How each segment method drives a raw-deflate ``compressobj``, cheapest
#: method first: its strategy (``stored`` also pins the level to 0).
_STRATEGY = {
    "stored": zlib.Z_DEFAULT_STRATEGY,
    "huffman": zlib.Z_HUFFMAN_ONLY,
    "rle": zlib.Z_RLE,
    "lz": zlib.Z_DEFAULT_STRATEGY,
}
#: CMF/FLG of a 32 KiB-window deflate stream ("default" level hint; the
#: hint is informational and segments differ in level anyway).
_ZLIB_HEADER = b"\x78\x9c"
#: How far back a deflate match may reach.
_WINDOW = 32 * 1024


def _probe(block: np.ndarray) -> np.ndarray:
    """The bytes a block's method is decided on: evenly strided pieces,
    so a dead region shows in the probe in proportion to its share of
    the block wherever it lies.  Blocks too short to stride are their
    own probe."""
    n_pieces = block.size // _PROBE_STRIDE
    if n_pieces < 2:
        return block
    pieces = block[: n_pieces * _PROBE_STRIDE].reshape(n_pieces, _PROBE_STRIDE)
    return np.ascontiguousarray(pieces[:, :_PROBE_PIECE])


class TransposeZlibCodec(Codec):
    """Lossless: bitshuffle-style byte transpose (group the i-th byte of
    every element into one plane), then deflate each plane by the
    cheapest method that is not larger, as one zlib stream.

    The payload is a plain zlib stream of the transposed bytes — what
    ``zlib.compress`` of that buffer would also produce a valid encoding
    of — so any inflater reads it; only the *encoder* knows that planes
    differ.  No decision depends on anything but the chunk's bytes and
    the level: equal chunks encode to equal payloads.
    """

    def __init__(self, level: int = DEFAULT_LEVEL):
        self.level = _check_level(level)
        self.spec = (
            "transpose-zlib"
            if self.level == DEFAULT_LEVEL
            else f"transpose-zlib:{self.level}"
        )

    def _deflate(self, buf: np.ndarray, method: str, last: bool = True) -> bytes:
        """``buf`` as one raw-deflate segment, byte-aligned so the next
        segment (a fresh compressor: Python's zlib cannot switch
        strategy mid-stream) can follow it in the same stream."""
        deflater = zlib.compressobj(
            0 if method == "stored" else self.level,
            zlib.DEFLATED,
            -zlib.MAX_WBITS,
            zlib.DEF_MEM_LEVEL,
            _STRATEGY[method],
        )
        return deflater.compress(buf) + deflater.flush(
            zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH
        )

    def _method(self, block: np.ndarray) -> str:
        """The cheapest method whose output on the block's probe is not
        larger than LZ's at the configured level.

        LZ is the yardstick rather than a byte histogram because a plane
        can be flat in histogram and still all matches (the low byte of
        an integer ramp)."""
        probe = _probe(block)
        lz = len(self._deflate(probe, "lz"))
        if probe.size <= lz:
            return "stored"
        for method in ("huffman", "rle"):
            if len(self._deflate(probe, method)) <= lz:
                return method
        return "lz"

    def _segments(self, transposed: np.ndarray, itemsize: int) -> list[list]:
        """``[start, stop, method]`` byte runs covering ``transposed``:
        one decision per block of each plane, neighbours that agree
        merged (across planes too) so they share one compressor."""
        n = transposed.size // itemsize
        runs: list[list] = []
        for plane_start in range(0, transposed.size, max(n, 1)):
            plane_stop = plane_start + n
            for start in range(plane_start, plane_stop, _BLOCK_BYTES):
                stop = min(start + _BLOCK_BYTES, plane_stop)
                method = self._method(transposed[start:stop])
                if runs and runs[-1][2] == method:
                    runs[-1][1] = stop
                else:
                    runs.append([start, stop, method])
        return runs or [[0, 0, "stored"]]

    @staticmethod
    def _transpose(arr: np.ndarray) -> np.ndarray:
        """The chunk's bytes plane-major: byte ``i`` of every element,
        then byte ``i + 1`` of every element, as one flat buffer."""
        arr = np.ascontiguousarray(arr)
        planes = arr.reshape(-1).view(np.uint8).reshape(-1, arr.dtype.itemsize)
        return np.ascontiguousarray(planes.T).reshape(-1)

    def plan(self, arr: np.ndarray) -> list[tuple[int, int, str]]:
        """``(start, stop, method)`` for every segment :meth:`encode`
        writes: byte ranges of the transposed buffer (plane ``i`` of an
        ``n``-element chunk is ``[i * n, (i + 1) * n)``) and one of
        ``"stored"``, ``"huffman"``, ``"rle"``, ``"lz"``.  The payload
        does not record it; this is how tests and benchmarks see the
        encoder's choices."""
        arr = np.asarray(arr)
        return [
            tuple(run)
            for run in self._segments(self._transpose(arr), arr.dtype.itemsize)
        ]

    def encode(self, arr: np.ndarray) -> bytes:
        arr = np.asarray(arr)
        transposed = self._transpose(arr)
        segments = [
            self._deflate(
                transposed[start:stop], method, last=stop == transposed.size
            )
            for start, stop, method in self._segments(
                transposed, arr.dtype.itemsize
            )
        ]
        trailer = struct.pack(">I", zlib.adler32(transposed))
        return b"".join([_ZLIB_HEADER, *segments, trailer])

    def decode(
        self,
        payload: bytes,
        shape: Sequence[int],
        dtype: object,
        select: "Sequence[slice] | None" = None,
        verified: bool = False,
    ) -> np.ndarray:
        # The contract is Codec.decode's.  Planes make it cheap to keep:
        # plane i needs only the bytes of the selection's leading-axis
        # rows [r0, r1), and the stream only as far as plane -1's row r1.
        dtype = np.dtype(dtype)
        itemsize = dtype.itemsize
        full, lattice, counts = _lattice(shape, select)
        n = _element_count(full)
        row = _element_count(full[1:])
        r0, r1 = (0, 0) if 0 in counts else (lattice[0].start, lattice[0].stop)
        if verified:
            pieces = _verified_pieces(
                payload, n * itemsize, (itemsize - 1) * n + r1 * row if r1 else 0
            )
        else:
            raw = _inflate(payload, n * itemsize, "transpose-zlib")
            pieces = [np.frombuffer(raw, dtype=np.uint8)]
        starts = list(itertools.accumulate((p.size for p in pieces), initial=0))
        # One strided pass per plane into the output beats transposing a
        # (itemsize, n) matrix at once; each pass reads the lattice only.
        out = np.empty(counts + (itemsize,), dtype=np.uint8)
        within = (slice(lattice[0].start - r0, r1 - r0, lattice[0].step),) + lattice[1:]
        for i in range(itemsize if out.size else 0):
            plane = _gather(pieces, starts, i * n + r0 * row, i * n + r1 * row)
            out[..., i] = plane.reshape((r1 - r0,) + full[1:])[within]
        return out.reshape(-1).view(dtype).reshape(counts[: len(shape)])


def _stored_prefix(
    read: Callable[[int, int], bytes], size: int, limit: int
) -> tuple[list[tuple[int, int]], int, int, bool]:
    """Walk the stored blocks a ``size``-byte zlib stream starts with,
    looking only at headers (``read(at, count)`` is ``count`` bytes of the
    stream from ``at``): ``(extents, total, position, final)`` — where each
    block's data lies as ``(offset, length)``, their summed length (at
    most ``limit``), where in the stream the walk stopped, and whether it
    stopped on the stream's final block.  Stored blocks end on byte
    boundaries, so the position is one a raw inflater can carry on from.
    Nothing is inflated."""

    def bad(why: str) -> FormatError:
        return FormatError(f"undecodable transpose-zlib chunk: {why}")

    if size < 2:
        raise bad("shorter than a zlib header")
    cmf, flg = read(0, 2)
    if cmf & 0x0F != 8 or cmf >> 4 > 7 or (cmf << 8 | flg) % 31 or flg & 0x20:
        raise bad("not a deflate stream a reader can start (header check, preset dictionary)")
    extents: list[tuple[int, int]] = []
    at, total, final = 2, 0, False
    while not final:
        if at >= size:
            raise bad("truncated before its final block")
        head = read(at, min(5, size - at))
        if head[0] >> 1 & 3:
            break  # a compressed block (or the reserved type): zlib's from here
        if len(head) < 5:
            raise bad("truncated inside a stored block header")
        final = bool(head[0] & 1)
        length, inverse = struct.unpack_from("<HH", head, 1)
        at += 5
        if length ^ inverse != 0xFFFF:
            raise bad("stored block length does not match its complement")
        if at + length > size:
            raise bad("stored block runs past the payload")
        total += length
        if total > limit:
            raise bad(f"holds more than {limit} bytes")
        if length:
            extents.append((at, length))
        at += length
    return extents, total, at, final


def _verified_pieces(payload: bytes, limit: int, needed: int) -> list[np.ndarray]:
    """At least the first ``needed`` bytes of the ``limit`` a verified
    transpose-zlib payload inflates to, as consecutive pieces: its stored
    prefix in place, then as much of the rest as ``needed`` reaches into,
    raw-inflated from where the prefix stopped."""
    extents, total, at, final = _stored_prefix(
        lambda at, count: payload[at : at + count], len(payload), limit
    )
    pieces = [np.frombuffer(payload, np.uint8, length, at) for at, length in extents]
    if final and (total != limit or len(payload) - at != 4):
        raise FormatError(
            f"transpose-zlib chunk ends after {total} bytes, expected {limit}, "
            f"or carries trailing bytes"
        )
    if needed <= total:
        return pieces
    # Matches in the rest may reach back into the stored blocks (any
    # single-compressor stream; this encoder's segments never look back):
    # the last window of them is the inflater's preset dictionary.
    window, have = [], 0
    for view in reversed(pieces):
        window.append(view)
        have += view.size
        if have >= _WINDOW:
            break
    inflater = zlib.decompressobj(-zlib.MAX_WBITS, zdict=b"".join(reversed(window)))
    to_end = needed == limit
    want = needed - total
    try:
        # One spare byte past a stream read to its end shows an over-long one.
        raw = inflater.decompress(memoryview(payload)[at:], want + to_end)
    except zlib.error as exc:
        raise FormatError(f"undecodable transpose-zlib chunk: {exc}") from exc
    if len(raw) != want or (
        to_end and (not inflater.eof or len(inflater.unused_data) != 4)
    ):
        raise FormatError(
            f"transpose-zlib chunk is truncated, holds more than {limit} bytes "
            f"or carries trailing bytes"
        )
    pieces.append(np.frombuffer(raw, dtype=np.uint8))
    return pieces


def _gather(pieces: list[np.ndarray], starts: list[int], lo: int, hi: int) -> np.ndarray:
    """Bytes ``[lo, hi)`` of the concatenation of ``pieces`` (piece ``k``
    begins at ``starts[k]``): a view when one piece holds them all."""
    k = bisect.bisect_right(starts, lo) - 1
    if hi <= starts[k + 1]:
        return pieces[k][lo - starts[k] : hi - starts[k]]
    out = np.empty(hi - lo, dtype=np.uint8)
    at = lo
    while at < hi:
        stop = min(hi, starts[k + 1])
        out[at - lo : stop - lo] = pieces[k][at - starts[k] : stop - starts[k]]
        at, k = stop, k + 1
    return out


class QuantizeCodec(Codec):
    """Controlled-loss: quantize to an absolute tolerance, then
    delta-encode the integer stream and deflate.

    The guarantee: for every finite input sample,
    ``|decoded - original| <= tol``.  Non-finite samples (NaN fills from
    degraded reads, infinities) are carried bit-exactly in a side list.
    Only floating dtypes are supported — integer data has nothing to
    gain from a float tolerance.
    """

    lossless = False

    def __init__(self, tol: float, level: int = DEFAULT_LEVEL):
        tol = float(tol)
        if not tol > 0:
            raise ConfigError(f"quantize tolerance must be > 0, got {tol}")
        self.tol = tol
        self.level = _check_level(level)
        self.spec = (
            f"quantize:{tol!r}"
            if self.level == DEFAULT_LEVEL
            else f"quantize:{tol!r}:{self.level}"
        )

    @property
    def _step(self) -> float:
        # round-to-nearest at step 2*tol keeps the error within +-tol.
        return 2.0 * self.tol

    def encode(self, arr: np.ndarray) -> bytes:
        arr = np.ascontiguousarray(arr)
        if arr.dtype.kind != "f":
            raise FormatError(
                f"quantize codec requires a float dtype, got {arr.dtype}"
            )
        flat = arr.reshape(-1)
        values = flat.astype(np.float64, copy=False)
        finite = np.isfinite(values)
        bad_idx = np.flatnonzero(~finite).astype(np.int64)
        bad_raw = np.ascontiguousarray(flat[bad_idx]).view(np.uint8)
        with np.errstate(over="ignore"):
            scaled = np.where(finite, values, 0.0) / self._step
        if scaled.size and np.abs(scaled).max() >= 2.0**62:
            raise FormatError(
                f"tolerance {self.tol} too small for data magnitude "
                f"(quantized values overflow int64)"
            )
        q = np.rint(scaled).astype(np.int64)
        delta = np.empty_like(q)
        if q.size:
            delta[0] = q[0]
            np.subtract(q[1:], q[:-1], out=delta[1:])
        deflater = zlib.compressobj(self.level)
        return b"".join(
            [
                deflater.compress(struct.pack("<Q", bad_idx.size)),
                deflater.compress(bad_idx),
                deflater.compress(bad_raw),
                deflater.compress(delta),
                deflater.flush(),
            ]
        )

    def _decode_whole(
        self, payload: bytes, shape: Sequence[int], dtype: np.dtype
    ) -> np.ndarray:
        if dtype.kind != "f":
            raise FormatError(
                f"quantize codec requires a float dtype, got {dtype}"
            )
        n = _element_count(shape)
        # The header names how many non-finite samples follow; every
        # sample being one is the most a well-formed chunk can hold.
        raw = _inflate(
            payload, 8 + n * (16 + dtype.itemsize), "quantize", exact=False
        )
        if len(raw) < 8:
            raise FormatError("quantize chunk too short for its header")
        (n_bad,) = struct.unpack_from("<Q", raw, 0)
        offset = 8
        expected = offset + n_bad * (8 + dtype.itemsize) + n * 8
        if len(raw) != expected:  # also any ``n_bad > n``: the inflate is capped
            raise FormatError(
                f"quantize chunk holds {len(raw)} bytes, expected {expected}"
            )
        bad_idx = np.frombuffer(raw, dtype=np.int64, count=n_bad, offset=offset)
        offset += 8 * n_bad
        bad_raw = np.frombuffer(raw, dtype=dtype, count=n_bad, offset=offset)
        offset += dtype.itemsize * n_bad
        delta = np.frombuffer(raw, dtype=np.int64, count=n, offset=offset)
        q = np.cumsum(delta, dtype=np.int64)
        out = (q * self._step).astype(dtype)
        if n_bad:
            if bad_idx.min() < 0 or bad_idx.max() >= n:
                raise FormatError("quantize chunk lists a sample outside the chunk")
            out[bad_idx] = bad_raw
        return out.reshape(shape)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[list[str]], Codec]] = {}


def register_codec(name: str, factory: Callable[[list[str]], Codec]) -> None:
    """Register ``factory(params) -> Codec`` under ``name``.

    ``params`` is the (possibly empty) list of ``:``-separated arguments
    following the name in a spec string.  Registration is global — a
    custom codec registered before files are opened makes their
    ``repro:codec`` attribute resolvable.

    Readers call ``decode(payload, shape, dtype, select=...,
    verified=...)``: a registered codec takes all five parameters
    (:meth:`Codec.decode`), itself or through the :class:`Codec` default.
    Writers call ``encode`` from several threads at once, so it must keep
    no per-call state on the instance (:class:`Codec`).
    """
    if not name or ":" in name:
        raise ConfigError(f"codec name must be non-empty and ':'-free, got {name!r}")
    _REGISTRY[name] = factory


def available_codecs() -> list[str]:
    """Registered codec names, sorted."""
    return sorted(_REGISTRY)


def resolve_codec(spec: object) -> Codec:
    """Resolve a spec string (or pass through a ready :class:`Codec`).

    Raises :class:`~repro.errors.FormatError` for unknown names or
    malformed parameters — the error a reader hits when a file was
    written with a codec this process does not know.
    """
    if isinstance(spec, Codec):
        return spec
    name, _, rest = str(spec).partition(":")
    params = rest.split(":") if rest else []
    factory = _REGISTRY.get(name)
    if factory is None:
        raise FormatError(
            f"unknown codec {name!r}; available: {', '.join(available_codecs())}"
        )
    try:
        return factory(params)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"bad codec spec {spec!r}: {exc}") from exc


def _delta_factory(params: list[str]) -> Codec:
    if len(params) > 1:
        raise ConfigError("delta-zlib takes at most one parameter (level)")
    return DeltaZlibCodec(int(params[0])) if params else DeltaZlibCodec()


def _transpose_factory(params: list[str]) -> Codec:
    if len(params) > 1:
        raise ConfigError("transpose-zlib takes at most one parameter (level)")
    return TransposeZlibCodec(int(params[0])) if params else TransposeZlibCodec()


def _quantize_factory(params: list[str]) -> Codec:
    if not params or len(params) > 2:
        raise ConfigError(
            "quantize needs a tolerance (and optional level), e.g. 'quantize:1e-3'"
        )
    tol = float(params[0])
    return (
        QuantizeCodec(tol, int(params[1])) if len(params) == 2 else QuantizeCodec(tol)
    )


register_codec("delta-zlib", _delta_factory)
register_codec("transpose-zlib", _transpose_factory)
register_codec("quantize", _quantize_factory)
