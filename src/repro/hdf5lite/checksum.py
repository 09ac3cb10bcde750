"""Per-block CRC32 sidecar checksums for hdf5lite datasets.

DASPack-style data-integrity verification as a first-class storage
property: a dataset may carry a ``repro:crc32`` sidecar attribute holding
one CRC32 per stored unit — fixed-size blocks of the data region for
contiguous datasets, one per chunk for chunked datasets.  The sidecar
lives in the ordinary attribute footer, so checksummed files remain
readable by every pre-checksum reader (the attributes are just ignored).

This module reads and writes the sidecar; which byte ranges it covers is
the dataset's stored-unit map
(:meth:`~repro.hdf5lite.dataset.Dataset._stored_units`), and the sidecar
is ``{unit key: CRC32}`` over it.  One function writes it
(:func:`_store_crcs`), once, when ``create_dataset`` appends the bytes it
covers — the one moment they are known to be good.  Nothing rewrites a
checksummed unit afterwards: a hyperslab write into a dataset with a
sidecar is refused, so no CRC is ever taken of bytes nobody verified.
The map is also where coverage is enforced — a sidecar that does
not name every unit exactly once is a ``FormatError`` on the first
verified read, never a unit read unverified.

Verification happens where bytes enter memory: the dataset's unit loader
verifies each unit as it is fetched from the backend — on the cached
paths that is the *miss* path only, so cache hits cost nothing extra — and
raises :class:`~repro.errors.CorruptDataError` with the file, byte offset,
and cause on mismatch.  ``File(..., verify_checksums=False)`` reads
without looking at the sidecar at all (measurement knob, and the way into
a file whose sidecar is damaged); :func:`verify_dataset` re-checks every
unit explicitly for ``inspect.verify`` / ``das_inspect --verify``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    keys = ds.attrs.get(CRC_KEYS_ATTR)
    try:
        block = int(ds.attrs.get(CRC_BLOCK_ATTR, 0))
        crcs = tuple(int(c) for c in crcs)
        by_key = dict(zip(map(str, keys), crcs)) if block == 0 else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{ds.path}: malformed checksum sidecar ({exc})") from exc
    if block < 0 or (by_key is not None and not len(by_key) == len(keys) == len(crcs)):
        raise FormatError(
            f"{ds.path}: malformed checksum sidecar (keys/crcs mismatch)"
        )
    return ChecksumInfo(block, crcs, by_key)


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


def _store_crcs(ds: "Dataset", crcs: dict[object, int], block_size: int) -> None:
    """Create the sidecar from ``crcs`` — ``{unit key: CRC32 of its stored
    bytes}``, taken as the dataset was created: the one place the
    ``repro:crc32*`` attributes are set.  ``block_size`` is ``0`` for one
    CRC per chunk, by chunk key, else the byte size of the contiguous
    blocks, by block number."""
    ds.attrs[CRC_ATTR] = list(crcs.values())
    ds.attrs[CRC_BLOCK_ATTR] = int(block_size)
    if not block_size:
        ds.attrs[CRC_KEYS_ATTR] = list(crcs)


def verify_dataset(ds: "Dataset") -> list[tuple[int, str]]:
    """Walk the dataset's stored-unit map: every inconsistency the map
    finds in the dataset's extents, size maps and sidecar, and every unit
    whose bytes do not carry their CRC, is an ``(offset, message)`` problem
    — returned instead of raised (the ``inspect.verify`` contract)."""
    found: list[str] = []
    try:
        units = ds._stored_units(sidecar=True, problems=found)
    except FormatError as exc:
        return [(0, str(exc))]
    problems = [(0, message) for message in found]
    for unit in units.values():
        if unit.crc is not None:
            try:
                ds._fetch_unit(unit)
            except (CorruptDataError, FormatError) as exc:
                problems.append((unit.offset, str(exc)))
    return problems
