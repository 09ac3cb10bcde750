"""Chunk sources — streaming time-blocks out of VCA/LAV/arrays.

The streaming execution core (:mod:`repro.core.pipeline`) never holds a
whole recording: it pulls ``(channels, time)`` blocks on demand through a
:class:`ChunkSource`.  Sources exist for in-memory arrays and open hdf5lite
datasets and LAVs; an open VCA
(:class:`~repro.storage.vca.VCAHandle`, what :func:`open_stream` returns)
is itself a :class:`DatasetSource` and threads the hdf5lite
:class:`~repro.hdf5lite.cache.BlockCache` / :class:`~repro.hdf5lite.cache.FilePool`
through, so the halo (ghost-zone) re-reads that overlap-aware chunking
issues are absorbed by the page cache instead of hitting the backend
twice.

A source has one read, ``read_strided(r0, r1, t0, t1, tstep)``;
``read_rows`` (``tstep=1``) and ``read`` (all rows of that) are what the
executor calls and what a wrapping source may intercept.  The one view
(:class:`SourceView`: channel range, time window, stride) translates
coordinates and composes with itself; :class:`DatasetSource` allocates
the float64 block the executor keeps and has the storage layer fill it
(:meth:`~repro.hdf5lite.dataset.Dataset.read_direct`), so between the
file and the operators a sample is written once.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import ConfigError, StorageError
from repro.hdf5lite.hyperslab import Hyperslab
from repro.utils.iostats import IOStats

if TYPE_CHECKING:
    from repro.storage.vca import VCAHandle


def iter_intervals(total: int, chunk: int) -> Iterator[tuple[int, int]]:
    """Half-open core intervals ``[k*chunk, (k+1)*chunk)`` tiling
    ``range(total)``; the final interval is ragged when ``chunk`` does not
    divide ``total``."""
    if total < 0:
        raise ConfigError("total must be >= 0")
    if chunk < 1:
        raise ConfigError("chunk must be >= 1")
    for lo in range(0, total, chunk):
        yield lo, min(total, lo + chunk)


#: Default byte budget of a streamed run's resident raw blocks.
DEFAULT_CHUNK_BYTES = 64 << 20


def auto_chunk_samples(
    n_channels: int,
    total: int | None = None,
    budget_bytes: int = DEFAULT_CHUNK_BYTES,
    itemsize: int = 8,
    floor: int = 4096,
) -> int:
    """A chunk length (time samples) whose float64 block fits ``budget_bytes``.

    Never below ``floor`` (tiny chunks would drown in halo overlap) and
    never above ``total`` when given.
    """
    if n_channels < 1:
        raise ConfigError("n_channels must be >= 1")
    chunk = max(floor, budget_bytes // max(1, n_channels * itemsize))
    if total is not None:
        chunk = min(chunk, max(1, total))
    return int(chunk)


class ChunkSource:
    """A 2-D ``(channels, time)`` series that yields time-blocks on demand.

    Concrete sources implement one read, :meth:`read_strided`;
    :meth:`read_rows` is its every-sample case and :meth:`read` the
    all-channels case of that — the three calls the executor makes.
    ``bytes_streamed`` accumulates the float64 bytes handed out — the
    executor's denominator for read-amplification, and a
    backend-independent counterpart to
    :class:`~repro.utils.iostats.IOStats` byte counts.
    """

    n_channels: int = 0
    n_samples: int = 0
    fs: float = 0.0

    def __init__(self) -> None:
        self.bytes_streamed = 0

    def read_strided(
        self, r0: int, r1: int, t0: int, t1: int, tstep: int = 1
    ) -> np.ndarray:
        """Rows ``[r0, r1)``, every ``tstep``-th sample of ``[t0, t1)``, as
        a float64 block.  Sources over storage push the stride all the way
        down: the storage layer fetches the lattice's bounding spans and
        hands back only the lattice."""
        raise NotImplementedError

    def read_rows(self, r0: int, r1: int, t0: int, t1: int) -> np.ndarray:
        return self.read_strided(r0, r1, t0, t1, 1)

    def read(self, t0: int, t1: int) -> np.ndarray:
        return self.read_rows(0, self.n_channels, t0, t1)

    def _check(self, r0: int, r1: int, t0: int, t1: int, tstep: int = 1) -> None:
        if tstep < 1:
            raise ConfigError("tstep must be >= 1")
        if not (0 <= r0 <= r1 <= self.n_channels):
            raise ConfigError(
                f"row range [{r0}, {r1}) outside {self.n_channels} channels"
            )
        if not (0 <= t0 <= t1 <= self.n_samples):
            raise ConfigError(
                f"time range [{t0}, {t1}) outside {self.n_samples} samples"
            )

    def close(self) -> None:  # sources owning handles override
        pass

    def __enter__(self) -> "ChunkSource":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ArraySource(ChunkSource):
    """A chunk source over an in-memory ``(channels, time)`` array."""

    def __init__(self, data: np.ndarray, fs: float = 0.0):
        super().__init__()
        data = np.asarray(data)
        if data.ndim != 2:
            raise ConfigError("ArraySource needs a 2-D (channels, time) array")
        self._data = data
        self.n_channels, self.n_samples = data.shape
        self.fs = float(fs)

    def read_strided(
        self, r0: int, r1: int, t0: int, t1: int, tstep: int = 1
    ) -> np.ndarray:
        self._check(r0, r1, t0, t1, tstep)
        # A float64 array is handed out as views of itself: nothing to read.
        block = np.asarray(self._data[r0:r1, t0:t1:tstep], dtype=np.float64)
        if tstep > 1:
            block = np.ascontiguousarray(block)
        self.bytes_streamed += block.nbytes
        return block


class DatasetSource(ChunkSource):
    """A chunk source over a 2-D hdf5lite
    :class:`~repro.hdf5lite.dataset.Dataset` or a
    :class:`~repro.storage.lav.LAV` of one — anything with ``shape`` and
    ``read_direct(hyperslab, out)``."""

    def __init__(self, dataset: object, fs: float = 0.0):
        super().__init__()
        shape = getattr(dataset, "shape", None)
        if shape is None or len(shape) != 2:
            raise ConfigError("DatasetSource needs a 2-D dataset with .shape")
        self._dataset = dataset
        self.n_channels, self.n_samples = int(shape[0]), int(shape[1])
        self.fs = float(fs)

    def read_strided(
        self, r0: int, r1: int, t0: int, t1: int, tstep: int = 1
    ) -> np.ndarray:
        self._check(r0, r1, t0, t1, tstep)
        # The block the caller keeps is the buffer the storage layer fills:
        # the stride goes all the way down (hdf5lite fetches the lattice's
        # spans and skips missed chunks) and every sample is cast to
        # float64 as it lands, once.
        block = np.empty((r1 - r0, -(-(t1 - t0) // tstep)), dtype=np.float64)
        self._dataset.read_direct(
            Hyperslab((r0, t0), block.shape, (1, tstep)), block
        )
        self.bytes_streamed += block.nbytes
        return block


class SourceView(ChunkSource):
    """A view of another source: a channel range, a time window and a time
    stride — local ``(r, t)`` is inner ``(channel_lo + r, t0 + t * step)``.

    This is what the query optimizer lowers ``select_channels`` /
    ``decimate`` into, and how the serving layer scopes a request to its
    window *before* that lowering: the subsample lattice, which
    :class:`~repro.core.graph.SubsampleOp` anchors at input sample 0, is
    anchored at the view's own ``t0``, so reading through the view is
    bit-identical to slicing and subsampling in memory.  A view of a view
    is one view of what that one wraps, so a pushed-down request read
    crosses one layer.  ``bytes_streamed`` counts the bytes handed out (the
    reduced volume); ``gaps`` and ``path`` are the wrapped source's, so gap
    and profile labels survive pushdown unchanged.
    """

    def __init__(
        self,
        inner: ChunkSource,
        channel_lo: int = 0,
        channel_hi: int | None = None,
        t0: int = 0,
        t1: int | None = None,
        step: int = 1,
    ):
        super().__init__()
        if channel_hi is None:
            channel_hi = inner.n_channels
        if t1 is None:
            t1 = inner.n_samples
        if not (0 <= channel_lo < channel_hi <= inner.n_channels):
            raise ConfigError(
                f"channel range [{channel_lo}, {channel_hi}) outside "
                f"{inner.n_channels} channels"
            )
        if not (0 <= t0 < t1 <= inner.n_samples):
            raise ConfigError(
                f"window [{t0}, {t1}) outside {inner.n_samples} samples"
            )
        if step < 1:
            raise ConfigError("step must be >= 1")
        self.n_channels = int(channel_hi) - int(channel_lo)
        self.n_samples = -(-(int(t1) - int(t0)) // int(step))
        self.fs = inner.fs / step if inner.fs else inner.fs
        if isinstance(inner, SourceView):
            channel_lo += inner.channel_lo
            t0 = inner.t0 + t0 * inner.step
            step *= inner.step
            inner = inner._inner
        self._inner = inner
        self.channel_lo, self.t0, self.step = int(channel_lo), int(t0), int(step)

    @property
    def gaps(self):
        """Degraded-read gap map of the wrapped source (raw coordinates)."""
        return getattr(self._inner, "gaps", None)

    @property
    def path(self):
        return getattr(self._inner, "path", None)

    def read_strided(
        self, r0: int, r1: int, t0: int, t1: int, tstep: int = 1
    ) -> np.ndarray:
        self._check(r0, r1, t0, t1, tstep)
        if t1 <= t0 or r1 <= r0:
            return np.empty((r1 - r0, max(0, t1 - t0)), dtype=np.float64)
        # Strides compose: every tstep-th sample of this view is every
        # (step * tstep)-th of the inner source.
        block = self._inner.read_strided(
            r0 + self.channel_lo,
            r1 + self.channel_lo,
            self.t0 + t0 * self.step,
            self.t0 + (t1 - 1) * self.step + 1,
            self.step * tstep,
        )
        self.bytes_streamed += block.nbytes
        return block


def open_stream(
    path: str | os.PathLike,
    iostats: IOStats | None = None,
    pool: object = None,
    cache: object = None,
    on_error: str = "raise",
    fill_value: float = float("nan"),
) -> "VCAHandle":
    """Open a VCA file as a streaming chunk source (context manager):
    :func:`~repro.storage.vca.open_vca` by another name."""
    from repro.storage.vca import open_vca

    return open_vca(path, iostats, pool, cache, on_error, fill_value)


def as_source(source: object, fs: float | None = None) -> ChunkSource:
    """Coerce ``source`` into a :class:`ChunkSource`.

    Accepts an existing source (returned as-is — an open
    :class:`~repro.storage.vca.VCAHandle` is one), a numpy array, a
    :class:`~repro.storage.lav.LAV`, an hdf5lite dataset, or a VCA file
    path (which opens a handle the caller must ``close``).  ``fs``
    supplies the sampling rate of an array, LAV or dataset, which carry
    none.
    """
    if isinstance(source, ChunkSource):
        return source
    if isinstance(source, np.ndarray):
        return ArraySource(source, fs=fs if fs is not None else 0.0)
    if isinstance(source, (str, os.PathLike)):
        return open_stream(source)
    if hasattr(source, "shape") and hasattr(source, "read_direct"):
        return DatasetSource(source, fs=fs if fs is not None else 0.0)
    raise StorageError(f"cannot stream from {type(source).__name__}")
