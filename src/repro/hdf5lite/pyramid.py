"""Decimation-pyramid *format* support (the storage half).

A pyramid is a family of progressively coarser copies of one base
``(channels, time)`` record, stored as ordinary chunked datasets under a
``pyramid/`` group in the same hdf5lite file (so codecs, CRC sidecars,
the block cache, and ``das_inspect`` all apply unchanged).  Level ``k``
holds the base record decimated by ``factor**k`` with the phase-aligned
anti-aliasing semantics of :class:`repro.core.operators.DecimateOp`:
level sample ``j`` is centred on base sample ``j * factor**k`` and is
NaN exactly when a base sample within ``10 * factor**k`` of that centre
is non-finite (a masked gap).  Levels are float32, the precision of the
samples they are computed from; float64 levels, as pyramids were stored
before that, stay valid and are served as stored.

This module defines the on-disk *convention* only — the attribute names
a reader keys on and one walk over the group that both discovers the
levels (:func:`pyramid_levels`, which refuses a pyramid with any problem)
and validates them (:func:`pyramid_problems`, folded into
:func:`repro.hdf5lite.inspect.verify`).  *Building* pyramids needs the
DSP operators and therefore lives up the stack in
:mod:`repro.serve.pyramid` (one pass over the base record for all
levels); keeping the format spec here lets
``das_inspect`` describe and verify pyramid-carrying files without the
inspection layer reaching above its rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError
from repro.hdf5lite.codecs import CODEC_ATTR
from repro.hdf5lite.dataset import Dataset

__all__ = [
    "PYRAMID_GROUP",
    "LEVEL_ATTR",
    "FACTOR_ATTR",
    "BASE_SAMPLES_ATTR",
    "BASE_FACTOR_ATTR",
    "BASE_DATASET_ATTR",
    "FS_ATTR",
    "PyramidLevel",
    "pyramid_levels",
    "pyramid_problems",
]

#: Group under the file root that holds the level datasets.
PYRAMID_GROUP = "pyramid"
#: Per-level dataset attributes (flat keys, like the ``repro:crc32`` and
#: ``repro:codec`` sidecar conventions).
LEVEL_ATTR = "repro:pyramid level"          # int k >= 1
FACTOR_ATTR = "repro:pyramid factor"        # cumulative decimation, factor**k
BASE_SAMPLES_ATTR = "repro:pyramid base samples"  # base record length
BASE_DATASET_ATTR = "repro:pyramid of"      # path of the base dataset
FS_ATTR = "repro:pyramid fs"                # sampling rate *at this level*
#: Group attribute: the per-level decimation factor the chain multiplies.
BASE_FACTOR_ATTR = "repro:pyramid base factor"
#: Level dtypes a reader serves: float32, and float64 from older builds.
_LEVEL_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class PyramidLevel:
    """One discovered pyramid level (metadata only, no data read)."""

    level: int
    factor: int
    path: str
    shape: tuple[int, ...]
    dtype: str
    codec: str | None
    base_samples: int
    base_dataset: str | None
    fs: float

    @property
    def n_channels(self) -> int:
        return int(self.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.shape[1])


def is_pyramid_level(ds: Dataset) -> bool:
    """Whether ``ds`` carries the per-level pyramid attributes."""
    return LEVEL_ATTR in ds.attrs and FACTOR_ATTR in ds.attrs


def _level_of(ds: Dataset) -> PyramidLevel:
    """A level's parsed attributes; unparseable ones are a ``FormatError``."""
    spec = ds.attrs.get(CODEC_ATTR)
    try:
        return PyramidLevel(
            level=int(ds.attrs[LEVEL_ATTR]),
            factor=int(ds.attrs[FACTOR_ATTR]),
            path=ds.path,
            shape=tuple(int(s) for s in ds.shape),
            dtype=str(ds.dtype),
            codec=str(spec) if spec is not None else None,
            base_samples=int(ds.attrs.get(BASE_SAMPLES_ATTR, 0)),
            base_dataset=ds.attrs.get(BASE_DATASET_ATTR),
            fs=float(ds.attrs.get(FS_ATTR, 0.0)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed pyramid attribute ({exc})") from exc


def pyramid_levels(file) -> list[PyramidLevel]:
    """The pyramid levels a file carries, sorted by level (``[]`` if none).

    ``file`` is an open :class:`repro.hdf5lite.File`.  A pyramid with any
    problem :func:`pyramid_problems` reports is unserveable: this raises
    :class:`~repro.errors.FormatError` naming the first one, so a reader
    refuses exactly what :func:`repro.hdf5lite.inspect.verify` rejects.
    """
    levels, problems = _walk(file)
    if problems:
        path, message = problems[0]
        raise FormatError(f"{path}: {message}")
    return levels


def pyramid_problems(file) -> list[tuple[str, str]]:
    """Structural problems with a file's pyramid, as ``(path, message)``.

    Checked invariants (the contract :mod:`repro.serve` relies on):

    * every dataset under ``pyramid/`` carries the level attributes, is
      2-D, and is float32 (or float64, as levels were stored before);
    * ``factor >= 1``, ``level >= 1``, and — when the group declares a
      base factor — ``factor == base_factor ** level``;
    * level length is exactly ``ceil(base_samples / factor)`` (the
      :class:`~repro.core.operators.DecimateOp` output-length law);
    * no two datasets claim the same level (readers select by level);
    * all levels agree on channel count, base length, and base dataset;
    * the named base dataset exists and matches ``base_samples``.

    Byte-level integrity (chunk extents, codec spec, CRC sidecars) is the
    ordinary per-dataset machinery of :func:`repro.hdf5lite.inspect.verify`
    — pyramid levels are plain chunked datasets and get it for free.
    """
    return _walk(file)[1]


def _walk(file) -> tuple[list[PyramidLevel], list[tuple[str, str]]]:
    """One pass over ``pyramid/``: the levels that parsed, sorted by
    level, and the problems found (see :func:`pyramid_problems`)."""
    problems: list[tuple[str, str]] = []
    if PYRAMID_GROUP not in file:
        return [], problems
    group = file[PYRAMID_GROUP]
    if isinstance(group, Dataset):
        return [], [(group.path, "pyramid is a dataset, expected a group")]
    base_factor = group.attrs.get(BASE_FACTOR_ATTR)
    levels: list[PyramidLevel] = []
    for name in group.datasets():
        ds = group[name]
        if not is_pyramid_level(ds):
            problems.append(
                (ds.path, "dataset under pyramid/ lacks the level attributes")
            )
            continue
        if len(ds.shape) != 2:
            problems.append(
                (ds.path, f"pyramid level must be 2-D, got shape {ds.shape}")
            )
            continue
        if ds.dtype not in _LEVEL_DTYPES:
            problems.append(
                (ds.path, f"pyramid level must be float32 or float64, got {ds.dtype}")
            )
            continue
        try:
            lvl = _level_of(ds)
        except FormatError as exc:
            problems.append((ds.path, str(exc)))
            continue
        if lvl.level < 1:
            problems.append((ds.path, f"bad pyramid level {lvl.level} (must be >= 1)"))
            continue
        if lvl.factor < 1:
            problems.append((ds.path, f"bad decimation factor {lvl.factor}"))
            continue
        if base_factor is not None and lvl.factor != int(base_factor) ** lvl.level:
            problems.append(
                (
                    ds.path,
                    f"factor {lvl.factor} != base factor {base_factor} ** "
                    f"level {lvl.level}",
                )
            )
        if lvl.base_samples > 0:
            expected = _ceil_div(lvl.base_samples, lvl.factor)
            if lvl.n_samples != expected:
                problems.append(
                    (
                        ds.path,
                        f"level length {lvl.n_samples} != "
                        f"ceil({lvl.base_samples} / {lvl.factor}) = {expected}",
                    )
                )
        levels.append(lvl)

    seen: dict[int, str] = {}
    for lvl in levels:
        if lvl.level in seen:
            problems.append(
                (lvl.path, f"duplicate pyramid level {lvl.level} (also {seen[lvl.level]})")
            )
        seen[lvl.level] = lvl.path
    for key in ("n_channels", "base_samples", "base_dataset"):
        values = {getattr(lvl, key) for lvl in levels}
        values.discard(None)
        if len(values) > 1:
            problems.append(
                (
                    group.path,
                    f"levels disagree on {key.replace('_', ' ')}: {sorted(map(str, values))}",
                )
            )

    for lvl in levels:
        if not lvl.base_dataset:
            continue
        if lvl.base_dataset not in file:
            problems.append(
                (lvl.path, f"base dataset {lvl.base_dataset!r} not in this file")
            )
            continue
        base = file[lvl.base_dataset]
        if not isinstance(base, Dataset) or len(base.shape) != 2:
            problems.append(
                (lvl.path, f"base {lvl.base_dataset!r} is not a 2-D dataset")
            )
            continue
        if lvl.base_samples and int(base.shape[1]) != lvl.base_samples:
            problems.append(
                (
                    lvl.path,
                    f"base samples attr {lvl.base_samples} != base dataset "
                    f"length {base.shape[1]} (stale pyramid?)",
                )
            )
        if int(base.shape[0]) != lvl.n_channels:
            problems.append(
                (
                    lvl.path,
                    f"level has {lvl.n_channels} channels, base has {base.shape[0]}",
                )
            )
    levels.sort(key=lambda lvl: lvl.level)
    return levels, problems
