"""Hyperslab selection algebra.

A *hyperslab* is a regular N-dimensional selection described per dimension
by ``(start, count, stride)`` — the same model as HDF5's hyperslab; the
paper's Logical Array View (LAV) is :class:`repro.storage.chunks.SourceView`,
which lowers to one.  This module converts numpy-style basic
indexing into hyperslabs, computes result shapes, and plans the backend
requests a selection becomes.  :func:`plan_spans` is the only planner,
for reads and writes alike: a read bridges holes of up to ``max_gap``
elements with a few large requests (:func:`gather_spans` scatters them),
a write — which cannot bridge a hole without reading it first — plans at
``max_gap=0``, one gap-free request per span, all of one length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import SelectionError

#: Largest hole (bytes) one read request bridges: selected elements no
#: further apart than this are fetched together, the hole read and
#: discarded.  Break-even is request cost x bandwidth — upwards of 10 KiB on
#: a warm page cache, ~500 KiB on the ``cluster`` Lustre model — so 4 KiB
#: is on the safe side everywhere; one value serves every caller, hence a
#: constant, not a setting.
COALESCE_GAP_BYTES = 4096
#: Upper bound on the scratch buffer a span is fetched into when its bytes
#: cannot land in the destination as they are (it bridges holes, or the
#: destination has another dtype or is not contiguous); longer spans are
#: split.
SPAN_SCRATCH_BYTES = 4 << 20


@dataclass(frozen=True)
class Hyperslab:
    """A regular selection: per-dimension ``(start, count, stride)``.

    ``stride`` is in elements of the underlying dimension; ``count`` is the
    number of selected elements along that dimension.
    """

    start: tuple[int, ...]
    count: tuple[int, ...]
    stride: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.start) == len(self.count) == len(self.stride)):
            raise SelectionError("start/count/stride rank mismatch")
        for s, c, st in zip(self.start, self.count, self.stride):
            if s < 0 or c < 0 or st < 1:
                raise SelectionError(
                    f"invalid hyperslab component start={s} count={c} stride={st}"
                )

    @property
    def ndim(self) -> int:
        return len(self.start)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.count

    @property
    def size(self) -> int:
        size = 1
        for c in self.count:
            size *= c
        return size

    def end(self) -> tuple[int, ...]:
        """Exclusive upper bound touched along each dimension."""
        return tuple(
            s + (c - 1) * st + 1 if c > 0 else s
            for s, c, st in zip(self.start, self.count, self.stride)
        )

    def within(self, shape: Sequence[int]) -> bool:
        """True if the selection fits inside an array of ``shape``."""
        if len(shape) != self.ndim:
            return False
        return all(e <= dim for e, dim in zip(self.end(), shape))

    def indices(self, dim: int) -> range:
        """The selected indices along dimension ``dim``."""
        s, c, st = self.start[dim], self.count[dim], self.stride[dim]
        return range(s, s + c * st, st)

    @classmethod
    def full(cls, shape: Sequence[int]) -> "Hyperslab":
        """The hyperslab selecting an entire array of ``shape``."""
        return cls(
            start=tuple(0 for _ in shape),
            count=tuple(int(d) for d in shape),
            stride=tuple(1 for _ in shape),
        )


def normalize_selection(
    selection: object, shape: Sequence[int]
) -> tuple[Hyperslab, tuple[int, ...]]:
    """Convert numpy-style basic indexing into a :class:`Hyperslab`.

    Supports integers, slices (with step), ``Ellipsis``, and tuples thereof.
    Returns ``(hyperslab, squeeze_axes)`` where ``squeeze_axes`` are the
    dimensions indexed by a scalar (removed from the result shape, matching
    numpy semantics).

    >>> hs, squeeze = normalize_selection((3, slice(0, 10, 2)), (10, 20))
    >>> hs.start, hs.count, hs.stride
    ((3, 0), (1, 5), (1, 2))
    >>> squeeze
    (0,)
    """
    ndim = len(shape)
    if not isinstance(selection, tuple):
        selection = (selection,)

    # Expand a single Ellipsis into full slices.
    n_ellipsis = sum(1 for s in selection if s is Ellipsis)
    if n_ellipsis > 1:
        raise SelectionError("at most one Ellipsis allowed in a selection")
    if n_ellipsis == 1:
        idx = selection.index(Ellipsis)
        fill = ndim - (len(selection) - 1)
        if fill < 0:
            raise SelectionError(f"too many indices for shape {tuple(shape)}")
        selection = selection[:idx] + (slice(None),) * fill + selection[idx + 1 :]

    if len(selection) > ndim:
        raise SelectionError(
            f"too many indices ({len(selection)}) for shape {tuple(shape)}"
        )
    selection = selection + (slice(None),) * (ndim - len(selection))

    start: list[int] = []
    count: list[int] = []
    stride: list[int] = []
    squeeze: list[int] = []
    for dim, (sel, size) in enumerate(zip(selection, shape)):
        if isinstance(sel, bool):
            raise SelectionError("boolean indexing is unsupported")
        elif isinstance(sel, int) or (
            not isinstance(sel, slice) and hasattr(sel, "__index__")
        ):
            index = int(sel.__index__()) if hasattr(sel, "__index__") else int(sel)
            if index < 0:
                index += size
            if not (0 <= index < size):
                raise SelectionError(
                    f"index {sel} out of bounds for dimension {dim} of size {size}"
                )
            start.append(index)
            count.append(1)
            stride.append(1)
            squeeze.append(dim)
        elif isinstance(sel, slice):
            s, e, st = sel.indices(size)
            if st <= 0:
                raise SelectionError("negative or zero slice steps are unsupported")
            n = max(0, (e - s + st - 1) // st)
            start.append(s)
            count.append(n)
            stride.append(st)
        else:
            raise SelectionError(
                f"unsupported selection component {sel!r}; only integers, "
                "slices and Ellipsis are supported"
            )

    return Hyperslab(tuple(start), tuple(count), tuple(stride)), tuple(squeeze)


def selection_shape(hs: Hyperslab, squeeze: tuple[int, ...]) -> tuple[int, ...]:
    """Result shape after applying a selection (numpy squeeze semantics)."""
    return tuple(c for dim, c in enumerate(hs.count) if dim not in squeeze)


@dataclass(frozen=True)
class SpanPlan:
    """How a hyperslab over a C-ordered array is fetched, one request per span.

    The trailing dimensions are *folded* into the spans, the leading ones
    enumerated index by index.  ``counts``/``steps`` are the selected
    count and the element step of the folded dimensions; the outermost of
    them is covered ``block`` selected indices per span (the last span of
    a row may be shorter), the others lie wholly inside every span and
    extend over ``inner_len`` elements.  ``offsets`` holds every span's
    first element, in row-major order of the result.
    """

    offsets: np.ndarray
    block: int
    counts: tuple[int, ...]
    steps: tuple[int, ...]
    inner_len: int

    def span_len(self, n_indices: int) -> int:
        """Element extent of a span over ``n_indices`` of the outermost
        folded dimension."""
        return (n_indices - 1) * self.steps[0] + self.inner_len


def plan_spans(
    hs: Hyperslab,
    shape: Sequence[int],
    max_gap: int = 0,
    max_span: int | None = None,
    in_place: bool = True,
) -> SpanPlan:
    """Plan the spans that fetch ``hs`` from a C-ordered array of ``shape``.

    Working outwards from the innermost dimension, a dimension is folded
    into the span while the hole between its consecutive selected indices
    is at most ``max_gap`` elements — so a stride-8 row is one bounding
    span, adjacent rows merge when the row gap also fits, and a full
    selection is a single span — and stops at the first hole that is
    wider: from there on every index is its own request, one seek per
    run.  A span that
    bridges holes is fetched into scratch, so it is kept within
    ``max_span`` elements by taking fewer indices of the outermost folded
    dimension per span; hole-free spans land directly in the result and
    are not limited — unless the caller says the result cannot take
    source bytes as they are (``in_place=False``: another dtype, or not
    contiguous), when every span goes through scratch and is bounded.
    """
    ndim = len(shape)
    if hs.ndim != ndim:
        raise SelectionError("hyperslab rank does not match array rank")
    if ndim == 0:  # a scalar is planned as the one element of a (1,) array
        return plan_spans(Hyperslab((0,), (1,), (1,)), (1,), max_gap, max_span, in_place)
    if not hs.within(shape):
        raise SelectionError(
            f"hyperslab {hs} does not fit within array shape {tuple(shape)}"
        )
    if max_gap < 0:
        raise SelectionError(f"max_gap must be >= 0, got {max_gap}")
    elem_strides = [1] * ndim
    for dim in range(ndim - 2, -1, -1):
        elem_strides[dim] = elem_strides[dim + 1] * shape[dim + 1]
    steps = [st * es for st, es in zip(hs.stride, elem_strides)]

    split, block, inner_len, dense = ndim - 1, 1, 1, True
    for dim in range(ndim - 1, -1, -1):
        n, step = hs.count[dim], steps[dim]
        hole = step - inner_len
        full = (n - 1) * step + inner_len
        full_dense = dense and (n == 1 or hole == 0)
        split = dim
        if n > 1 and hole > max_gap:
            block = 1
            break
        scratched = not (full_dense and in_place)
        if max_span is not None and scratched and full > max_span:
            block = max(1, 1 + (max_span - inner_len) // step)
            break
        block = max(n, 1)
        if dim:
            inner_len, dense = full, full_dense

    if hs.size == 0:
        offsets = np.empty(0, dtype=np.int64)
    else:
        base = sum(s * es for s, es in zip(hs.start, elem_strides))
        offsets = np.array([base], dtype=np.int64)
        for dim in range(split + 1):
            every = block if dim == split else 1
            along = np.arange(0, hs.count[dim], every, dtype=np.int64) * steps[dim]
            offsets = (offsets[:, None] + along).reshape(-1)
    return SpanPlan(
        offsets=offsets,
        block=block,
        counts=tuple(hs.count[split:]),
        steps=tuple(steps[split:]),
        inner_len=inner_len,
    )


def gather_spans(
    plan: SpanPlan,
    out: np.ndarray,
    fetch: Callable[[int, memoryview], None],
    dtype: object = None,
    resident: Callable[[int], tuple[bytes, int]] | None = None,
) -> None:
    """Fill ``out`` — any array shaped like the planned hyperslab's
    ``count`` — with one ``fetch`` per span.

    ``fetch(byte_offset, dest)`` fills the byte buffer ``dest`` with the
    source bytes from ``byte_offset`` (the span's element offset times the
    itemsize of ``dtype``, the source's element type; ``out.dtype`` when
    omitted) on.  A hole-free span is fetched straight into its place in
    ``out`` when ``out`` holds ``dtype`` and is contiguous there; any
    other span goes through one reused scratch buffer and its lattice is
    cast-assigned out of a strided view of it.

    With ``resident`` the source is already in memory block by block
    (cache pages): ``resident(byte_offset)`` returns the block holding that
    byte and the block's own byte offset, and every run of indices that
    ends inside the block is copied as one strided view of it, whatever
    the spans were.  Only an index that straddles blocks is assembled
    through ``fetch``.
    """
    if plan.offsets.size == 0:
        return
    if out.ndim == 0:  # planned as a (1,) array
        out = out.reshape(1)
    dtype = out.dtype if dtype is None else np.dtype(dtype)
    n, block = plan.counts[0], plan.block
    inner_shape = plan.counts[1:]
    inner_size = math.prod(inner_shape)
    itemsize = dtype.itemsize
    strides = tuple(step * itemsize for step in plan.steps)
    inner_bytes = plan.inner_len * itemsize
    lead_shape = out.shape[: out.ndim - len(plan.counts)]
    row_offsets = (plan.offsets[:: -(-n // block)] * itemsize).tolist()
    landable = out.dtype == dtype and out[(0,) * len(lead_shape)].flags.c_contiguous
    scratch = scratch_bytes = row_bytes = None
    for lead, row_offset in zip(np.ndindex(*lead_shape), row_offsets):
        row = out[lead]
        if landable:
            row_bytes = memoryview(row.reshape(-1).view(np.uint8))
        lo = 0
        while lo < n:
            offset = row_offset + lo * strides[0]
            indices = min(block, n - lo)
            if resident is not None:
                data, start = resident(offset)
                fit = min(
                    n - lo,
                    (start + len(data) - offset - inner_bytes) // strides[0] + 1,
                )
                if fit > 0:
                    row[lo : lo + fit] = np.ndarray(
                        (fit,) + inner_shape, dtype, buffer=data,
                        offset=offset - start, strides=strides,
                    )
                    lo += fit
                    continue
                indices = 1
            size = indices * inner_size
            length = plan.span_len(indices)
            if landable and size == length:
                at = lo * inner_size * itemsize
                fetch(offset, row_bytes[at : at + size * itemsize])
            else:
                if scratch is None:
                    scratch = np.empty(plan.span_len(min(block, n)), dtype=dtype)
                    scratch_bytes = memoryview(scratch.view(np.uint8))
                fetch(offset, scratch_bytes[: length * itemsize])
                row[lo : lo + indices] = np.ndarray(
                    (indices,) + inner_shape, dtype, buffer=scratch, strides=strides
                )
            lo += indices
