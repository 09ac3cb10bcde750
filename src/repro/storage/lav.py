"""Logical Array View (LAV) — paper §IV, Fig. 3.

A LAV is a rectangular subset view of a (possibly virtual) 2-D DAS
dataset — "run the analysis on a subset of interested channels" — that
composes with further slicing and only reads the bytes the final
selection needs.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import SelectionError
from repro.hdf5lite.cache import FilePool
from repro.hdf5lite.dataset import Dataset
from repro.hdf5lite.hyperslab import Hyperslab, normalize_selection, selection_shape
from repro.utils.iostats import IOStats


class LAV:
    """A logical view ``dataset[channels, times]`` that defers all I/O."""

    def __init__(
        self,
        dataset: Dataset | "LAV",
        channels: slice | int | None = None,
        times: slice | int | None = None,
    ):
        base_shape = dataset.shape
        if len(base_shape) != 2:
            raise SelectionError("LAV requires a 2-D (channels, time) dataset")
        selection = (
            channels if channels is not None else slice(None),
            times if times is not None else slice(None),
        )
        hs, squeeze = normalize_selection(selection, base_shape)
        if squeeze:
            raise SelectionError("LAV bounds must be slices, not scalars")
        if isinstance(dataset, LAV):
            self._dataset = dataset._dataset
            self._slab = _compose(dataset._slab, hs)
        else:
            self._dataset = dataset
            self._slab = hs

    @property
    def shape(self) -> tuple[int, ...]:
        return self._slab.count

    @property
    def ndim(self) -> int:
        return 2

    @property
    def dtype(self) -> np.dtype:
        return self._dataset.dtype

    @property
    def channel_range(self) -> range:
        """Underlying channel indices this view selects."""
        return self._slab.indices(0)

    @property
    def time_range(self) -> range:
        return self._slab.indices(1)

    def select(self, channels: slice | None = None, times: slice | None = None) -> "LAV":
        """A narrower view of this view."""
        return LAV(self, channels=channels, times=times)

    def read(self) -> np.ndarray:
        """Materialise the whole view."""
        return self._dataset.read_hyperslab(self._slab)

    def __getitem__(self, selection: object) -> np.ndarray:
        hs, squeeze = normalize_selection(selection, self.shape)
        absolute = _compose(self._slab, hs)
        data = self._dataset.read_hyperslab(absolute)
        return data.reshape(selection_shape(hs, squeeze))

    def read_direct(self, hs: Hyperslab, out: np.ndarray) -> None:
        """Fill ``out`` with selection ``hs`` of this view — the dataset's
        own :meth:`~repro.hdf5lite.dataset.Dataset.read_direct` in view
        coordinates (composing refuses a selection that escapes the view)."""
        self._dataset.read_direct(_compose(self._slab, hs), out)

    def __array__(self, dtype: object = None, copy: object = None) -> np.ndarray:
        arr = self.read()
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return arr

    def __repr__(self) -> str:
        return (
            f"<LAV shape={self.shape} of {self._dataset.path!r} "
            f"start={self._slab.start} stride={self._slab.stride}>"
        )


def open_lav(
    pool: FilePool,
    path: str | os.PathLike,
    dataset: str,
    channels: slice | None = None,
    times: slice | None = None,
    iostats: IOStats | None = None,
) -> LAV:
    """A LAV over ``dataset`` in ``path``, opened through a file pool.

    The pool owns the underlying handle (and its block cache), so building
    many views over the same file — the "subset of interested channels"
    workflow — opens it once instead of once per view, and their reads
    share cached blocks.
    """
    file = pool.acquire(path, iostats=iostats)
    return LAV(file.dataset(dataset), channels=channels, times=times)


def _compose(outer: Hyperslab, inner: Hyperslab) -> Hyperslab:
    """Selection of a selection: resolve ``inner`` (relative to ``outer``)
    into base-array coordinates."""
    if outer.ndim != inner.ndim:
        raise SelectionError("rank mismatch composing selections")
    start = []
    stride = []
    for dim in range(outer.ndim):
        if inner.count[dim] > 0:
            last = inner.start[dim] + (inner.count[dim] - 1) * inner.stride[dim]
            if last >= outer.count[dim]:
                raise SelectionError("inner selection escapes the view")
        start.append(outer.start[dim] + inner.start[dim] * outer.stride[dim])
        stride.append(outer.stride[dim] * inner.stride[dim])
    return Hyperslab(tuple(start), inner.count, tuple(stride))
