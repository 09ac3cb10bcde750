"""Decimation-pyramid *builder* and level selection (the serving half).

The storage-side format — attribute names, discovery, validation — lives
in :mod:`repro.hdf5lite.pyramid` (so ``das_inspect`` works without this
package).  This module produces the levels and picks one per request:

* A level is ``float32(DecimateOp(factor) over the record)``: the
  planner's float64 decimation, rounded once to the precision of the
  float32 samples it is computed from.  :func:`compute_level` is that
  definition; a finite decimated sample beyond float32's range is a
  :class:`~repro.errors.ServeError`, never a stored ``inf``.
* :func:`build_pyramid` streams the archive **once**: every level is a
  branch ``scan → DecimateOp(factor**k)`` of one multi-output plan, so
  each chunk is fetched, CRC-verified and decoded a single time and
  fanned out to all levels.  The results are stored as chunked hdf5lite
  datasets (codec + CRC sidecar) inside the archive file itself.  Each
  level is computed *from the raw record* with the cumulative factor —
  never by re-decimating the previous level — which is what makes the
  bit-exactness contract checkable: level ``k`` equals
  :func:`compute_level` ``(raw, factor**k)``, nothing more.
* :func:`select_level` picks the coarsest stored level that still
  delivers at least one sample per requested output pixel, so a
  zoomed-out preview reads O(output pixels) backend bytes.
* NaN gap columns (degraded reads masked by the storage layer) propagate
  through the decimation FIR into NaN preview pixels — the mask arrives
  for free, no side-channel needed.  A non-finite sample masks exactly
  the pixels whose FIR support (``10 * factor`` raw samples each side of
  the pixel centre) holds it; every other pixel equals the clean
  record's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.graph import Query
from repro.core.operators import DecimateOp
from repro.core.optimizer import execute, optimize
from repro.errors import ConfigError, ServeError
from repro.hdf5lite import File
from repro.hdf5lite.pyramid import (
    BASE_DATASET_ATTR,
    BASE_FACTOR_ATTR,
    BASE_SAMPLES_ATTR,
    FACTOR_ATTR,
    FS_ATTR,
    LEVEL_ATTR,
    PYRAMID_GROUP,
    PyramidLevel,
    pyramid_levels,
)
from repro.storage.chunks import as_source, open_stream
from repro.storage.vca import VCA_DATASET
from repro.utils.iostats import IOStats

__all__ = [
    "PyramidConfig",
    "build_pyramid",
    "compute_level",
    "round_to_level",
    "select_level",
    "level_slice",
]

#: Stored chunk length of every pyramid level.
_LEVEL_CHUNK_SAMPLES = 8192


@dataclass(frozen=True)
class PyramidConfig:
    """Build-time knobs.

    ``factor`` is the per-level decimation (level ``k`` holds the record
    at ``1/factor**k`` rate); levels stop at ``max_levels`` or when the
    next level would fall below ``min_samples``.  ``codec`` is stored
    per level exactly like any other hdf5lite dataset, in CRC'd chunks of
    8 192 samples.  The build itself streams with the planner's auto-sized
    chunk.

    The default codec is ``transpose-zlib:1``: of a float32 level's
    four byte planes three are mantissa noise, which it stores, and the
    sign/exponent plane it Huffman-codes — smaller, and several times
    faster both ways, than deflating a first difference of the same
    bits (``delta-zlib``, the default before it; archives built then
    stay readable, the codec is recorded per level).  Level 1 because
    nothing in the exponent plane repays a longer match search.
    """

    factor: int = 4
    max_levels: int = 8
    min_samples: int = 64
    codec: str | None = "transpose-zlib:1"

    def __post_init__(self) -> None:
        if self.factor < 2:
            raise ConfigError("pyramid factor must be >= 2")
        if self.max_levels < 1:
            raise ConfigError("max_levels must be >= 1")
        if self.min_samples < 1:
            raise ConfigError("min_samples must be >= 1")


def round_to_level(decimated: np.ndarray, what: str) -> np.ndarray:
    """``decimated`` rounded once to float32, the precision levels are
    stored at.  A finite sample beyond float32's range would round to
    ``inf`` and render as a gap: :class:`~repro.errors.ServeError`
    naming ``what`` instead.  NaN and infinite samples stay what they are.
    """
    with np.errstate(over="ignore"):
        level = decimated.astype(np.float32)
    overflow = np.isinf(level)
    if overflow.any() and np.isfinite(decimated[overflow]).any():
        raise ServeError(f"{what}: a decimated sample is outside float32 range")
    return level


def compute_level(
    source: object,
    factor: int,
    chunk_samples: int | None = None,
    iostats: IOStats | None = None,
) -> np.ndarray:
    """The pyramid level at ``factor``: ``DecimateOp(factor)`` streamed
    over ``source`` via the planner, rounded once to float32
    (:func:`round_to_level`).  This *is* the pyramid-level definition —
    the builder stores its output, and the correctness tests compare the
    stored level against a fresh call.
    """
    src = as_source(source)
    plan = optimize(
        Query.scan(None).then(DecimateOp(int(factor))),
        chunk_samples=chunk_samples,
    )
    (result,) = execute(plan, source=src, iostats=iostats)
    return round_to_level(result.output, f"decimation by {int(factor)}")


def build_pyramid(
    archive: str | os.PathLike,
    config: PyramidConfig | None = None,
    on_error: str = "raise",
    fill_value: float = float("nan"),
    iostats: IOStats | None = None,
) -> list[PyramidLevel]:
    """Build and store a decimation pyramid inside a VCA archive file.

    Streams the archive once — one plan with a ``DecimateOp(factor**k)``
    branch per level, one read per chunk — and appends the outputs as
    ``pyramid/level<k>`` chunked datasets with the configured codec and
    CRC sidecars: each is :func:`compute_level` of the record, float32.
    Returns the stored levels.

    ``on_error="mask"`` builds through degraded sources: vanished or
    corrupt minutes become NaN spans in the raw stream and hence NaN
    pixels at every level.  Raises :class:`~repro.errors.ServeError` if
    the archive already carries a pyramid (rebuilds need a fresh VCA —
    hdf5lite data regions are append-only), or, before anything is
    written, if a level does not fit float32.
    """
    config = config if config is not None else PyramidConfig()
    path = os.fspath(archive)
    with File(path, "r") as probe:
        if PYRAMID_GROUP in probe:
            raise ServeError(f"{path}: archive already carries a pyramid")

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
    outputs = [
        round_to_level(
            result.output, f"{path}: {PYRAMID_GROUP}/level{k} (factor {factor})"
        )
        for k, (factor, result) in enumerate(zip(factors, results), start=1)
    ]
    del results

    with File(path, "r+") as f:
        group = f.create_group(PYRAMID_GROUP)
        group.attrs[BASE_FACTOR_ATTR] = int(config.factor)
        for k, (factor, out) in enumerate(zip(factors, outputs), start=1):
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


def select_level(
    levels: list[PyramidLevel], span: int, width: int
) -> PyramidLevel | None:
    """The coarsest level that still yields >= ``width`` samples over a
    ``span``-sample window — i.e. at least one stored sample per output
    pixel.  ``None`` means no stored level is fine enough: read raw.
    """
    if span < 1:
        raise ConfigError("span must be >= 1")
    if width < 1:
        raise ConfigError("width must be >= 1")
    target = span // width
    best: PyramidLevel | None = None
    for lvl in sorted(levels, key=lambda lv: lv.factor):
        if lvl.factor <= target:
            best = lvl
    return best


def level_slice(factor: int, t0: int, t1: int) -> tuple[int, int]:
    """Level-index interval covering raw window ``[t0, t1)``.

    :class:`~repro.core.operators.DecimateOp` output ``j`` is centred on
    raw sample ``j * factor``, so the window owns level samples
    ``[ceil(t0/factor), ceil(t1/factor))`` — the same tiling law the
    streaming executor uses, which keeps pyramid reads and planner reads
    aligned on identical lattices.
    """
    if factor < 1:
        raise ConfigError("factor must be >= 1")
    if not (0 <= t0 < t1):
        raise ConfigError(f"bad window [{t0}, {t1})")
    return (-(-t0 // factor), -(-t1 // factor))
