"""Virtual dataset source mappings.

A virtual dataset stitches rectangular regions of datasets stored in
*other* files into one logical array.  Each :class:`VirtualSource` maps a
``count``-shaped block starting at ``src_start`` in the source dataset onto
the region starting at ``dst_start`` in the virtual array.

This is the storage mechanism behind the paper's Virtually Concatenated
Array (VCA): a VCA over ``n`` one-minute DAS files is a virtual dataset
with ``n`` sources laid end-to-end along the time axis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import FormatError
from repro.hdf5lite.hyperslab import Hyperslab


@dataclass(frozen=True)
class VirtualSource:
    """One rectangular region mapping of a virtual dataset."""

    file: str
    dataset: str
    src_start: tuple[int, ...]
    dst_start: tuple[int, ...]
    count: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.src_start) == len(self.dst_start) == len(self.count)):
            raise FormatError("virtual source rank mismatch")
        if any(c <= 0 for c in self.count):
            raise FormatError("virtual source regions must be non-empty")
        if any(s < 0 for s in self.src_start) or any(d < 0 for d in self.dst_start):
            raise FormatError("virtual source offsets must be non-negative")

    @property
    def ndim(self) -> int:
        return len(self.count)

    @property
    def size(self) -> int:
        """Number of elements in the mapped region."""
        n = 1
        for c in self.count:
            n *= c
        return n

    def nbytes(self, itemsize: int) -> int:
        """Bytes of the mapped region for elements of ``itemsize`` bytes.

        The I/O charge of reading this source whole — used by the parallel
        readers so accounting follows the dataset's actual dtype instead of
        assuming float32.
        """
        return self.size * int(itemsize)

    def src_slab_for(self, dst_region: Hyperslab) -> Hyperslab:
        """Translate a destination sub-region into source coordinates.

        ``dst_region`` must lie entirely within this source's destination
        region (callers intersect first).  The mapping is a pure
        translation, so a strided destination lattice maps to the same
        lattice in source coordinates — which is what lets decimation
        pushdown delegate strided reads to the per-minute source files.
        """
        start = []
        for dim in range(self.ndim):
            rel = dst_region.start[dim] - self.dst_start[dim]
            n, st = dst_region.count[dim], dst_region.stride[dim]
            last = rel + (n - 1) * st if n > 0 else rel
            if rel < 0 or last >= self.count[dim]:
                raise FormatError("destination region escapes the source mapping")
            start.append(self.src_start[dim] + rel)
        return Hyperslab(
            start=tuple(start),
            count=dst_region.count,
            stride=dst_region.stride,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "file": self.file,
            "dataset": self.dataset,
            "src_start": list(self.src_start),
            "dst_start": list(self.dst_start),
            "count": list(self.count),
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "VirtualSource":
        return cls(
            file=raw["file"],
            dataset=raw["dataset"],
            src_start=tuple(int(v) for v in raw["src_start"]),
            dst_start=tuple(int(v) for v in raw["dst_start"]),
            count=tuple(int(v) for v in raw["count"]),
        )


def validate_sources(
    shape: Sequence[int], sources: Sequence[VirtualSource]
) -> None:
    """Check every source's destination region fits within ``shape``."""
    for src in sources:
        if src.ndim != len(shape):
            raise FormatError(
                f"virtual source rank {src.ndim} != dataset rank {len(shape)}"
            )
        for dim in range(src.ndim):
            if src.dst_start[dim] + src.count[dim] > shape[dim]:
                raise FormatError(
                    f"virtual source {src.file}:{src.dataset} exceeds dataset "
                    f"shape {tuple(shape)} along dimension {dim}"
                )


def sources_tile(shape: Sequence[int], sources: Sequence[VirtualSource]) -> bool:
    """True when the sources' destination regions cover every element of
    an array of ``shape`` exactly once — the case (every VCA) in which a
    read of the virtual dataset has nothing to fill.

    Counted, not searched: the regions lie inside the array, their sizes
    add up to its size, and every corner point is a corner of an even
    number of regions except the array's own corners, which belong to one.
    The parity condition makes the number of regions over any element odd
    inside the array (each region adds one to a box, and a sum of boxes is
    fixed, mod 2, by where its corners are); with the sizes adding up, odd
    means one.  O(sources), whatever the arrangement.
    """
    corners: set[tuple[int, ...]] = set()
    volume = 0
    for src in sources:
        stop = tuple(d + c for d, c in zip(src.dst_start, src.count))
        if src.ndim != len(shape) or any(e > dim for e, dim in zip(stop, shape)):
            return False
        volume += src.size
        corners.symmetric_difference_update(
            itertools.product(*zip(src.dst_start, stop))
        )
    own = set(itertools.product(*((0, int(dim)) for dim in shape)))
    return volume == math.prod(shape) and corners == own
