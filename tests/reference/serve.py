"""Frozen reference implementations the serve tests check the program
against, kept verbatim as they stood before the program changed.

* :func:`parent_build_pyramid` — ``repro.serve.pyramid.build_pyramid``
  when levels were stored as float64: the planner's ``DecimateOp``
  outputs written as they came out.  Archives built by it must still
  verify and serve bit for bit.  It publishes the way every writer does
  now: the VCA archive is written again, levels included, and replaces
  the old file on close.
"""

import os

from repro.core.graph import Query
from repro.core.operators import DecimateOp
from repro.core.optimizer import execute, optimize
from repro.errors import ServeError
from repro.hdf5lite import File
from repro.hdf5lite.pyramid import (
    BASE_DATASET_ATTR,
    BASE_FACTOR_ATTR,
    BASE_SAMPLES_ATTR,
    FACTOR_ATTR,
    FS_ATTR,
    LEVEL_ATTR,
    PYRAMID_GROUP,
    pyramid_levels,
)
from repro.serve.pyramid import PyramidConfig
from repro.storage.chunks import open_stream
from repro.storage.vca import VCA_DATASET

#: Stored chunk length of every pyramid level.
_LEVEL_CHUNK_SAMPLES = 8192


def parent_build_pyramid(archive, config=None, on_error="raise",
                         fill_value=float("nan"), iostats=None):
    """``build_pyramid`` as it was when levels were float64 (frozen)."""
    config = config if config is not None else PyramidConfig()
    path = os.fspath(archive)
    with File(path, "r") as probe:
        if PYRAMID_GROUP in probe:
            raise ServeError(f"{path}: archive already carries a pyramid")
        root_attrs = probe.attrs.to_dict()
        vca = probe.dataset(VCA_DATASET)
        vca_attrs = vca.attrs.to_dict()

    with open_stream(
        path, iostats=iostats, on_error=on_error, fill_value=fill_value
    ) as src:
        base_samples = src.n_samples
        base_fs = src.fs
        factors = [
            f
            for f in (config.factor ** k for k in range(1, config.max_levels + 1))
            if -(-base_samples // f) >= config.min_samples
        ]
        if not factors:
            raise ServeError(
                f"{path}: record too short for any pyramid level "
                f"(needs >= {config.min_samples * config.factor} samples)"
            )
        scan = Query.scan(None)
        plan = optimize([scan.then(DecimateOp(f)) for f in factors])
        results = execute(plan, source=src, iostats=iostats)

    with File(path, "w") as f:
        f.attrs.update_many(root_attrs)
        f.create_dataset(
            VCA_DATASET, shape=vca.shape, dtype=vca.dtype,
            virtual_sources=vca.virtual_sources, fill=vca.fill,
        ).attrs.update_many(vca_attrs)
        group = f.create_group(PYRAMID_GROUP)
        group.attrs[BASE_FACTOR_ATTR] = int(config.factor)
        for k, (factor, result) in enumerate(zip(factors, results), start=1):
            out = result.output
            fs = base_fs / factor if base_fs else 0.0
            ds = f.create_dataset(
                f"{PYRAMID_GROUP}/level{k}",
                data=out,
                chunks=(out.shape[0], min(_LEVEL_CHUNK_SAMPLES, out.shape[1])),
                checksum=True,
                codec=config.codec,
            )
            ds.attrs[LEVEL_ATTR] = int(k)
            ds.attrs[FACTOR_ATTR] = int(factor)
            ds.attrs[BASE_SAMPLES_ATTR] = int(base_samples)
            ds.attrs[BASE_DATASET_ATTR] = VCA_DATASET
            ds.attrs[FS_ATTR] = float(fs)

    with File(path, "r") as f:
        return pyramid_levels(f)
