"""Really Concatenated Array (RCA) — paper §IV-A and Table I.

An RCA physically copies every source file's data into one large
contiguous dataset.  It doubles storage during construction and costs a
full read+write of the data — the slow path Fig. 6 quantifies — but the
result supports trivially parallel reads (each rank's channel block is
one contiguous run).
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from repro.hdf5lite import File, Hyperslab
from repro.storage.dasfile import DATASET_NAME
from repro.storage.search import DASFileInfo
from repro.storage.vca import _source_inventory
from repro.utils.iostats import IOStats

RCA_DATASET = "RCA"


def create_rca(
    out_path: str | os.PathLike,
    files: Sequence[DASFileInfo | str],
    dtype: object = np.float32,
    iostats: IOStats | None = None,
) -> str:
    """Build an RCA by physically concatenating files along time.

    Streams one source file at a time (the construction never holds more
    than one minute of data), writing each block into its time slot of
    the preallocated output dataset.  Sources are checked as
    :func:`~repro.storage.vca.create_vca` checks them: 2-D, one channel
    count, one sampling frequency.
    """
    paths, metas, shapes, merged = _source_inventory(files, iostats)
    out_path = os.fspath(out_path)
    n_channels = merged.n_channels
    total_samples = sum(shape[1] for shape in shapes)
    with File(out_path, "w", iostats=iostats) as out:
        out.attrs.update_many(merged.to_attrs())
        out.attrs["RCA source count"] = len(paths)
        out.attrs["RCA source timestamps"] = [m.timestamp for m in metas]
        ds = out.create_dataset(
            RCA_DATASET, shape=(n_channels, total_samples), dtype=dtype
        )
        offset = 0
        for path, shape in zip(paths, shapes):
            with File(path, "r", iostats=iostats) as src:
                block = src.dataset(DATASET_NAME).read()
            ds.write_hyperslab(
                Hyperslab((0, offset), (n_channels, shape[1]), (1, 1)),
                block.astype(np.dtype(dtype), copy=False),
            )
            offset += shape[1]
    return out_path
