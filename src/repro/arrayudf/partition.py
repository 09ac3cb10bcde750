"""Block partitioning with ghost zones.

ArrayUDF assigns each rank a block of the global array plus a *ghost
zone* — the halo of neighbouring cells its stencils reach — "to avoid
communication during the execution" (paper §II-B).  For DAS data the
natural partition is by channel rows: a rank owns a contiguous channel
block and reads it (plus ``halo`` extra channels on each side) in one
shot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UDFError


def partition_1d(n: int, size: int, rank: int) -> tuple[int, int]:
    """Even contiguous split of ``range(n)``: returns ``(lo, hi)``.

    Ranks take it over channel rows, and threads over cells or row
    blocks as OpenMP's ``schedule(static)``."""
    if size < 1 or not (0 <= rank < size):
        raise UDFError(f"bad partition: rank={rank} size={size}")
    base, extra = divmod(n, size)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


@dataclass(frozen=True)
class Partition:
    """One rank's share of a 2-D ``(rows, cols)`` array.

    ``core_*`` bounds delimit the cells this rank owns (and writes
    output for); ``read_*`` bounds include the ghost halo actually read
    from storage.  ``core_offset`` locates the core inside the read
    block.
    """

    rank: int
    size: int
    core_row_lo: int
    core_row_hi: int
    read_row_lo: int
    read_row_hi: int
    col_lo: int
    col_hi: int

    @property
    def core_rows(self) -> int:
        return self.core_row_hi - self.core_row_lo

    @property
    def read_rows(self) -> int:
        return self.read_row_hi - self.read_row_lo

    @property
    def cols(self) -> int:
        return self.col_hi - self.col_lo

    @property
    def core_offset(self) -> int:
        """Row index of the first core row inside the read block."""
        return self.core_row_lo - self.read_row_lo

    def read_nbytes(self, itemsize: int = 4) -> int:
        return self.read_rows * self.cols * itemsize


def partition_rows(
    shape: tuple[int, int],
    size: int,
    rank: int,
    halo: int = 0,
    col_range: tuple[int, int] | None = None,
) -> Partition:
    """Row-block partition of a ``(rows, cols)`` array with a row halo.

    The halo is clipped at the global array edges (stencils there use the
    boundary policy instead of ghost cells).
    """
    rows, cols = shape
    if halo < 0:
        raise UDFError("halo must be >= 0")
    lo, hi = partition_1d(rows, size, rank)
    col_lo, col_hi = col_range if col_range is not None else (0, cols)
    if not (0 <= col_lo <= col_hi <= cols):
        raise UDFError(f"bad column range {col_range} for {cols} columns")
    return Partition(
        rank=rank,
        size=size,
        core_row_lo=lo,
        core_row_hi=hi,
        read_row_lo=max(0, lo - halo),
        read_row_hi=min(rows, hi + halo),
        col_lo=col_lo,
        col_hi=col_hi,
    )
