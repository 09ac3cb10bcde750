"""Per-block CRC32 sidecar checksums for hdf5lite datasets.

DASPack-style data-integrity verification as a first-class storage
property: a dataset may carry a ``repro:crc32`` sidecar attribute holding
one CRC32 per storage block — fixed-size blocks of the data region for
contiguous datasets, one per chunk for chunked datasets.  The sidecar
lives in the ordinary attribute footer, so checksummed files remain
readable by every pre-checksum reader (the attributes are just ignored).

Verification happens where bytes enter memory: the dataset read paths
(:mod:`repro.hdf5lite.dataset`) verify each block as it is loaded from
the backend — on the cached paths that is the *miss* path only, so cache
hits cost nothing extra — and raise
:class:`~repro.errors.CorruptDataError` with the file, byte offset, and
cause on mismatch.  ``File(..., verify_checksums=False)`` disables
read-side verification (measurement knob); :func:`verify_dataset`
re-checks every block explicitly for ``inspect.verify`` / ``das_inspect
--verify``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CorruptDataError, FormatError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdf5lite.dataset import Dataset

#: Sidecar attribute holding the flat CRC32 list.
CRC_ATTR = "repro:crc32"
#: Block size (bytes) the contiguous CRCs were computed over (0 = chunked,
#: one CRC per chunk).
CRC_BLOCK_ATTR = "repro:crc32 block"
#: Chunked datasets only: chunk keys aligned with the CRC list.
CRC_KEYS_ATTR = "repro:crc32 keys"
#: Default checksum block for contiguous datasets (matches the default
#: cache page size, so cached verification is one CRC per page miss).
DEFAULT_CHECKSUM_BLOCK = 1 << 20


@dataclass(frozen=True)
class ChecksumInfo:
    """Parsed sidecar: either per-block (contiguous) or per-chunk CRCs."""

    block_size: int  # 0 for chunked layouts
    crcs: tuple[int, ...]
    chunk_crcs: dict[str, int] | None = None

    @property
    def chunked(self) -> bool:
        return self.block_size == 0


def checksum_info(ds: "Dataset") -> ChecksumInfo | None:
    """The dataset's parsed checksum sidecar, or ``None`` when absent."""
    crcs = ds.attrs.get(CRC_ATTR)
    if crcs is None:
        return None
    block = int(ds.attrs.get(CRC_BLOCK_ATTR, 0))
    keys = ds.attrs.get(CRC_KEYS_ATTR)
    if block == 0:
        if keys is None or len(keys) != len(crcs):
            raise FormatError(
                f"{ds.path}: malformed checksum sidecar (keys/crcs mismatch)"
            )
        return ChecksumInfo(
            0,
            tuple(int(c) for c in crcs),
            {str(k): int(c) for k, c in zip(keys, crcs)},
        )
    return ChecksumInfo(block, tuple(int(c) for c in crcs))


def block_count(region_nbytes: int, block_size: int) -> int:
    return -(-region_nbytes // block_size) if region_nbytes else 0


def verify_block(
    path: str, offset: int, data: bytes, expected: int, what: str = "block"
) -> None:
    """Raise :class:`CorruptDataError` when ``data``'s CRC32 != expected."""
    actual = zlib.crc32(data) & 0xFFFFFFFF
    if actual != int(expected) & 0xFFFFFFFF:
        raise CorruptDataError(
            path,
            offset=offset,
            reason=(
                f"crc32 mismatch on {what}: stored {int(expected) & 0xFFFFFFFF:#010x}, "
                f"computed {actual:#010x}"
            ),
        )


def checksum_dataset(ds: "Dataset", block_size: int = DEFAULT_CHECKSUM_BLOCK) -> bool:
    """Compute and store the sidecar for one dataset.

    Contiguous datasets get one CRC per ``block_size`` bytes of their
    data region; chunked datasets one CRC per chunk.  Virtual datasets
    carry no local bytes — their integrity is their sources' — so they
    are skipped (returns ``False``).
    """
    from repro.hdf5lite.dataset import LAYOUT_CHUNKED, LAYOUT_CONTIGUOUS

    if block_size < 1:
        raise FormatError(f"block_size must be >= 1, got {block_size}")
    layout = ds.layout
    backend = ds._file._backend
    if layout == LAYOUT_CONTIGUOUS:
        base = int(ds._meta["offset"])
        region = ds.nbytes
        crcs = []
        for i in range(block_count(region, block_size)):
            off = i * block_size
            n = min(block_size, region - off)
            crcs.append(zlib.crc32(backend.read_at(base + off, n)) & 0xFFFFFFFF)
        ds.attrs[CRC_ATTR] = crcs
        ds.attrs[CRC_BLOCK_ATTR] = int(block_size)
        ds.attrs.pop(CRC_KEYS_ATTR, None)
        ds._file._crc_cache.pop(ds.path, None)
        return True
    if layout == LAYOUT_CHUNKED:
        store_chunk_crcs(
            ds,
            {
                key: zlib.crc32(
                    backend.read_at(int(offset), _chunk_stored_nbytes(ds, key))
                )
                for key, offset in ds._meta["chunk_index"].items()
            },
        )
        return True
    return False  # virtual: no local bytes


def store_chunk_crcs(ds: "Dataset", crcs: dict[str, int]) -> None:
    """Store a chunked dataset's sidecar: ``crcs`` maps each chunk key to
    the CRC32 of its stored (encoded, on codec datasets) bytes.  Writers
    that hold the payloads anyway (``create_dataset``) call this with
    CRCs taken as the bytes were appended, instead of
    :func:`checksum_dataset`'s read-back."""
    ds.attrs[CRC_ATTR] = list(crcs.values())
    ds.attrs[CRC_BLOCK_ATTR] = 0
    ds.attrs[CRC_KEYS_ATTR] = list(crcs)
    ds._file._crc_cache.pop(ds.path, None)


def _chunk_shape(
    key: str, chunks: tuple[int, ...], shape: tuple[int, ...]
) -> tuple[int, ...]:
    """Actual (edge-clipped) shape of the chunk at grid coordinate ``key``."""
    coord = [int(c) for c in key.split(",")] if key else []
    return tuple(
        min(c, dim - ci * c) for ci, c, dim in zip(coord, chunks, shape)
    )


def _chunk_stored_nbytes(ds: "Dataset", key: str) -> int:
    """Bytes the chunk occupies *on disk* — the encoded payload size for
    codec datasets (``chunk_enc``), else shape × itemsize.  CRCs always
    cover the stored bytes, so corruption is caught before any decode."""
    enc = ds._meta.get("chunk_enc")
    if enc is not None and key in enc:
        return int(enc[key])
    chunks = ds.chunks
    if chunks is None:
        raise FormatError(f"{ds.path}: chunk {key} on a non-chunked dataset")
    return (
        int(np.prod(_chunk_shape(key, chunks, ds.shape), dtype=np.int64))
        * ds.itemsize
    )


def update_chunk_crc(ds: "Dataset", key: str, payload: bytes) -> None:
    """Refresh one chunk's sidecar CRC after a hyperslab write re-stored
    its bytes (``payload`` is exactly what went to disk — encoded bytes on
    codec datasets).  Like :func:`update_contiguous_crcs`, writers keep
    the sidecar true even when read-side verification is off."""
    crcs_attr = ds.attrs.get(CRC_ATTR)
    keys_attr = ds.attrs.get(CRC_KEYS_ATTR)
    if crcs_attr is None or keys_attr is None:
        return
    if int(ds.attrs.get(CRC_BLOCK_ATTR, 0)) != 0:
        return
    keys = [str(k) for k in keys_attr]
    crcs = [int(c) for c in crcs_attr]
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    try:
        i = keys.index(key)
    except ValueError:
        keys.append(key)
        crcs.append(crc)
        ds.attrs[CRC_KEYS_ATTR] = keys
    else:
        crcs[i] = crc
    ds.attrs[CRC_ATTR] = crcs
    ds._file._crc_cache.pop(ds.path, None)


def add_checksums(file, block_size: int = DEFAULT_CHECKSUM_BLOCK) -> int:
    """Retrofit checksums onto every dataset of an open writable file;
    returns how many datasets gained a sidecar."""
    from repro.hdf5lite.dataset import Dataset
    from repro.hdf5lite.file import Group

    count = 0

    def walk(group: Group) -> None:
        nonlocal count
        for name in group.keys():
            child = group[name]
            if isinstance(child, Dataset):
                if checksum_dataset(child, block_size=block_size):
                    count += 1
            else:
                walk(child)

    walk(file)
    return count


def verify_dataset(ds: "Dataset") -> list[tuple[int, str]]:
    """Re-check every stored block; returns ``(offset, message)`` problems
    instead of raising (the ``inspect.verify`` contract)."""
    info = checksum_info(ds)
    if info is None:
        return []
    backend = ds._file._backend
    problems: list[tuple[int, str]] = []
    if info.chunked:
        if ds.chunks is None:
            return [(0, "checksum sidecar claims chunks on a non-chunked dataset")]
        index = ds._meta.get("chunk_index", {})
        for key, expected in info.chunk_crcs.items():
            if key not in index:
                problems.append((0, f"checksummed chunk {key} missing from index"))
                continue
            offset = int(index[key])
            nbytes = _chunk_stored_nbytes(ds, key)
            try:
                verify_block(
                    ds._file.filename, offset, backend.read_at(offset, nbytes),
                    expected, what=f"chunk {key}",
                )
            except (CorruptDataError, FormatError) as exc:
                problems.append((offset, str(exc)))
        return problems
    base = int(ds._meta["offset"])
    region = ds.nbytes
    expected_blocks = block_count(region, info.block_size)
    if len(info.crcs) != expected_blocks:
        return [(base, f"checksum sidecar has {len(info.crcs)} CRCs, expected {expected_blocks}")]
    for i, expected in enumerate(info.crcs):
        off = i * info.block_size
        n = min(info.block_size, region - off)
        try:
            verify_block(
                ds._file.filename, base + off, backend.read_at(base + off, n),
                expected, what=f"block {i}",
            )
        except (CorruptDataError, FormatError) as exc:
            problems.append((base + off, str(exc)))
    return problems


def update_contiguous_crcs(ds: "Dataset", byte_lo: int, byte_hi: int) -> None:
    """Recompute the CRCs of the blocks overlapping dataset-relative byte
    range ``[byte_lo, byte_hi)`` after a hyperslab write, keeping the
    sidecar true to the new bytes."""
    info = checksum_info(ds)
    if info is None or info.chunked:
        return
    base = int(ds._meta["offset"])
    region = ds.nbytes
    backend = ds._file._backend
    crcs = list(info.crcs)
    bs = info.block_size
    first, last = byte_lo // bs, max(byte_lo, byte_hi - 1) // bs
    for i in range(first, min(last + 1, len(crcs))):
        off = i * bs
        n = min(bs, region - off)
        crcs[i] = zlib.crc32(backend.read_at(base + off, n)) & 0xFFFFFFFF
    ds.attrs[CRC_ATTR] = crcs
    ds._file._crc_cache.pop(ds.path, None)
