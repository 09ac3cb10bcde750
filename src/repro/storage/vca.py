"""Virtually Concatenated Array (VCA) — paper §IV, Fig. 3 and Table I.

A VCA merges the per-minute files of a recording interval into one
logical ``channel x time`` array *without copying data*: only source
metadata (file names, shapes, offsets) is written.  Construction cost is
therefore a handful of metadata operations per file — the ~70 000x
construction speedup over RCA reported in Fig. 6.
"""

from __future__ import annotations

import copy
import os
from typing import Sequence

import numpy as np

from repro.errors import ConfigError, StorageError
from repro.hdf5lite import File, FilePool, VirtualSource
from repro.storage.chunks import DatasetSource
from repro.storage.dasfile import DATASET_NAME, read_das_metadata
from repro.storage.gaps import GapMap, GapSpan
from repro.storage.metadata import DASMetadata
from repro.storage.search import DASFileInfo
from repro.utils.iostats import IOStats

VCA_DATASET = "VCA"


def create_vca(
    out_path: str | os.PathLike,
    files: Sequence[DASFileInfo | str],
    dataset: str = DATASET_NAME,
    dtype: object = np.float32,
    relative_paths: bool = True,
    assume_uniform: bool = False,
    iostats: IOStats | None = None,
) -> str:
    """Build a VCA file from per-minute DAS files (time-axis concatenation).

    Only metadata is touched — no array data moves.  By default every
    source's metadata footer is read and validated; with
    ``assume_uniform`` only the *first* file's footer is opened and the
    rest are assumed to share its shape/rate (timestamps then come from
    file names).  The uniform path is what makes VCA construction an
    O(files) in-memory operation — the paper's 0.01 s / ~70 000x-faster-
    than-RCA result (Fig. 6); shape mismatches surface at read time.
    """
    if not files:
        raise StorageError("cannot build a VCA from zero files")
    out_path = os.fspath(out_path)
    out_dir = os.path.dirname(os.path.abspath(out_path))

    paths = [f.path if isinstance(f, DASFileInfo) else os.fspath(f) for f in files]
    metas: list[DASMetadata] = []
    shapes: list[tuple[int, ...]] = []
    if assume_uniform:
        first_meta, first_shape = read_das_metadata(paths[0], iostats=iostats)
        if len(first_shape) != 2:
            raise StorageError(
                f"{paths[0]}: expected a 2-D DAS array, got {first_shape}"
            )
        from repro.storage.search import timestamp_from_filename

        for index, entry in enumerate(files):
            if isinstance(entry, DASFileInfo):
                stamp = entry.timestamp
            else:
                stamp = timestamp_from_filename(paths[index]) or first_meta.timestamp
            metas.append(
                DASMetadata(
                    sampling_frequency=first_meta.sampling_frequency,
                    spatial_resolution=first_meta.spatial_resolution,
                    timestamp=stamp,
                    n_channels=first_shape[0],
                    extras=dict(first_meta.extras) if index == 0 else {},
                )
            )
            shapes.append(first_shape)
    else:
        for path in paths:
            metadata, shape = read_das_metadata(path, iostats=iostats)
            if len(shape) != 2:
                raise StorageError(f"{path}: expected a 2-D DAS array, got {shape}")
            metas.append(metadata)
            shapes.append(shape)

    n_channels = shapes[0][0]
    fs = metas[0].sampling_frequency
    for path, metadata, shape in zip(paths, metas, shapes):
        if shape[0] != n_channels:
            raise StorageError(
                f"{path}: channel count {shape[0]} != {n_channels} of first file"
            )
        if metadata.sampling_frequency != fs:
            raise StorageError(
                f"{path}: sampling frequency {metadata.sampling_frequency} != {fs}"
            )

    total_samples = sum(shape[1] for shape in shapes)
    sources: list[VirtualSource] = []
    offset = 0
    for path, shape in zip(paths, shapes):
        ref = (
            os.path.relpath(os.path.abspath(path), out_dir)
            if relative_paths
            else os.path.abspath(path)
        )
        sources.append(
            VirtualSource(
                file=ref,
                dataset="/" + DATASET_NAME if dataset == DATASET_NAME else dataset,
                src_start=(0, 0),
                dst_start=(0, offset),
                count=shape,
            )
        )
        offset += shape[1]

    merged = DASMetadata(
        sampling_frequency=fs,
        spatial_resolution=metas[0].spatial_resolution,
        timestamp=metas[0].timestamp,
        n_channels=n_channels,
        extras=dict(metas[0].extras),
    )
    with File(out_path, "w", iostats=iostats) as f:
        f.attrs.update_many(merged.to_attrs())
        f.attrs["VCA source count"] = len(paths)
        f.attrs["VCA source timestamps"] = [m.timestamp for m in metas]
        ds = f.create_dataset(
            VCA_DATASET,
            shape=(n_channels, total_samples),
            dtype=dtype,
            virtual_sources=sources,
        )
        ds.attrs["concat axis"] = 1
    return out_path


class VCAHandle(DatasetSource):
    """An open VCA — merged metadata, sources, gaps — and the chunk source
    the executor reads (``fs`` is the VCA's sampling frequency).

    ``pool`` — an optional :class:`repro.hdf5lite.FilePool`.  When given,
    both the VCA file itself and its per-minute source files are acquired
    from (and owned by) the pool, so repeated opens of the same VCA and
    repeated reads across handles stop re-opening files.  ``cache`` — an
    optional block cache (or config) for the non-pooled path; the pool
    carries its own shared cache.

    ``on_error`` selects degraded-read behaviour when a source file is
    unreadable (vanished, truncated, corrupt):

    * ``"raise"`` (default) — the typed error propagates (fail-fast).
    * ``"mask"`` — the failed source's span is filled with ``fill_value``
      and recorded in :attr:`gaps`; the source is retried on later reads
      (transient faults may clear).

    The mode is this handle's alone: it reads through a ``Dataset``
    object of its own and sets the hook only there, never on the file a
    pool shares with other readers.

    :attr:`gaps` is a :class:`repro.storage.gaps.GapMap` of masked spans
    in absolute VCA sample coordinates — callers that accept a degraded
    result must consult it.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        iostats: IOStats | None = None,
        pool: "FilePool | None" = None,
        cache: object = None,
        on_error: str = "raise",
        fill_value: float = float("nan"),
    ):
        if on_error not in ("raise", "mask"):
            raise StorageError(
                f"on_error must be 'raise' or 'mask', got {on_error!r}"
            )
        self.path = os.fspath(path)
        self.fill_value = fill_value
        self.gaps = GapMap()
        if pool is not None:
            self._file = pool.acquire(self.path, iostats=iostats)
            self._owns_file = False
        else:
            self._file = File(self.path, "r", iostats=iostats, cache=cache)
            self._owns_file = True
        try:
            self.metadata = DASMetadata.from_attrs(
                {
                    k: v
                    for k, v in self._file.attrs.items()
                    if not k.startswith("VCA ")
                }
            )
            super().__init__(
                copy.copy(self._file.dataset(VCA_DATASET)),
                fs=self.metadata.sampling_frequency,
            )
        except (StorageError, ConfigError, KeyError):
            self.close()
            raise StorageError(f"{self.path!r} is not a VCA file") from None
        self._dataset.on_source_error = (
            self._handle_source_error if on_error == "mask" else None
        )

    def _handle_source_error(self, source, overlap, exc) -> float:
        """Degraded-read hook: record the loss and return the fill value
        that masks its span."""
        self.gaps.add(
            GapSpan(
                source=source.file,
                t0=int(overlap.start[1]),
                t1=int(overlap.start[1] + overlap.count[1]),
                reason=f"{type(exc).__name__}: {exc}",
            )
        )
        return self.fill_value

    @property
    def dataset(self):
        """The VCA dataset as this handle reads it (its own object)."""
        return self._dataset

    @property
    def shape(self) -> tuple[int, ...]:
        return self.dataset.shape

    @property
    def itemsize(self) -> int:
        return self.dataset.itemsize

    @property
    def sources(self):
        return self.dataset.virtual_sources

    @property
    def source_timestamps(self) -> list[str]:
        return list(self._file.attrs.get("VCA source timestamps", []))

    def source_paths(self) -> list[str]:
        """Absolute paths of the backing per-minute files."""
        base = os.path.dirname(os.path.abspath(self.path))
        out = []
        for src in self.sources:
            path = src.file
            if not os.path.isabs(path):
                path = os.path.normpath(os.path.join(base, path))
            out.append(path)
        return out

    def close(self) -> None:
        """Close the handle (a pooled file stays open, owned by the pool)."""
        if self._owns_file:
            self._file.close()


def open_vca(
    path: str | os.PathLike,
    iostats: IOStats | None = None,
    pool: "FilePool | None" = None,
    cache: object = None,
    on_error: str = "raise",
    fill_value: float = float("nan"),
) -> VCAHandle:
    """Open a VCA file (a :class:`~repro.storage.chunks.ChunkSource`;
    close it, or use it as a context manager).

    ``on_error="mask"`` turns unreadable sources into
    fill-valued spans recorded on the handle's :attr:`~VCAHandle.gaps`
    instead of raising (see :class:`VCAHandle`).
    """
    return VCAHandle(path, iostats, pool, cache, on_error, fill_value)
