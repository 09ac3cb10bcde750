"""File inspection and integrity checking (an ``h5ls``/``h5check`` lite).

``describe`` renders a file's tree; ``verify`` walks every object and
checks the structural invariants a reader relies on, returning a list of
problems instead of raising, so operators can triage a damaged
acquisition directory.  For a dataset that stores bytes those invariants
are its stored-unit map's (:func:`~repro.hdf5lite.checksum.verify_dataset`
walks the map the readers use: extents inside the data region, chunk
index complete, codec and encoded-size map agreeing, the checksum
sidecar covering every unit and matching its bytes); for a virtual one,
that its sources resolve; for a pyramid, that its levels agree.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.errors import FormatError
from repro.hdf5lite.checksum import verify_dataset
from repro.hdf5lite.codecs import (
    CODEC_ATTR,
    TransposeZlibCodec,
    _stored_prefix,
    resolve_codec,
)
from repro.hdf5lite.dataset import LAYOUT_CHUNKED, LAYOUT_VIRTUAL, Dataset
from repro.hdf5lite.file import File, Group
from repro.hdf5lite.pyramid import FACTOR_ATTR, LEVEL_ATTR, is_pyramid_level, pyramid_problems


@dataclass(frozen=True)
class Problem:
    """One integrity finding."""

    path: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.path}: {self.message}"


def _stored_in_place(ds: Dataset) -> str:
    """The share of a ``transpose-zlib`` dataset's decoded bytes that a
    verified read takes from the stored payloads as they lie: the walk the
    decoder itself starts with, run over the file — a few bytes of header
    per stored block are read, no payload is fetched, nothing is inflated.
    It is why a block read of one archive costs half that of another.
    ``?`` when the storage maps or a stream do not hold up (``verify``
    says how)."""
    read_at = ds._file._backend.read_at
    stored = 0
    try:
        for unit in ds._stored_units(sidecar=False).values():
            stored += _stored_prefix(
                lambda at, count: read_at(unit.offset + at, count),
                unit.nbytes,
                math.prod(unit.shape) * ds.dtype.itemsize,
            )[1]
    except (FormatError, OSError):
        return "?"
    return f"{stored / ds.nbytes:.2f}" if ds.nbytes else "0.00"


def describe(file: File, attrs: bool = False) -> str:
    """A human-readable tree listing of a file."""
    lines = [f"{file.filename} (hdf5lite)"]

    def emit_attrs(obj, indent: str) -> None:
        if attrs:
            for key in sorted(obj.attrs):
                lines.append(f"{indent}@ {key} = {obj.attrs[key]!r}")

    def walk(group: Group, indent: str) -> None:
        emit_attrs(group, indent)
        for name in group.keys():
            child = group[name]
            if isinstance(child, Dataset):
                extra = ""
                if is_pyramid_level(child):
                    extra += (
                        f" pyramid[level={int(child.attrs[LEVEL_ATTR])}"
                        f" factor={int(child.attrs[FACTOR_ATTR])}]"
                    )
                if child.layout == LAYOUT_CHUNKED:
                    extra += f" chunks={child.chunks}"
                    spec = child.attrs.get(CODEC_ATTR)
                    if spec is not None:
                        try:
                            codec = resolve_codec(spec)
                        except FormatError:
                            extra += f" codec={spec} (unresolvable)"
                        else:
                            kind = "lossless" if codec.lossless else "lossy"
                            extra += f" codec={spec} ({kind})"
                            if isinstance(codec, TransposeZlibCodec):
                                extra += (
                                    f" stored-in-place={_stored_in_place(child)}"
                                )
                elif child.layout == LAYOUT_VIRTUAL:
                    extra += f" sources={len(child.virtual_sources)}"
                lines.append(
                    f"{indent}{name}  dataset {child.shape} {child.dtype}"
                    f" [{child.layout}]{extra}"
                )
                emit_attrs(child, indent + "  ")
            else:
                lines.append(f"{indent}{name}/")
                walk(child, indent + "  ")

    walk(file, "  ")
    return "\n".join(lines)


def verify(file: File) -> list[Problem]:
    """Check a file's structural integrity; returns found problems."""
    problems: list[Problem] = []

    def check_dataset(ds: Dataset) -> None:
        if ds.layout == LAYOUT_VIRTUAL:
            for source in ds.virtual_sources:
                path = source.file
                if not os.path.isabs(path):
                    path = os.path.join(os.path.dirname(file.filename), path)
                if not os.path.exists(path):
                    problems.append(
                        Problem(ds.path, f"missing source file {source.file!r}")
                    )
                    continue
                try:
                    with File(path, "r") as src:
                        src_ds = src.dataset(source.dataset)
                        for dim in range(source.ndim):
                            if (
                                source.src_start[dim] + source.count[dim]
                                > src_ds.shape[dim]
                            ):
                                problems.append(
                                    Problem(
                                        ds.path,
                                        f"source {source.file!r} region exceeds "
                                        f"its shape {src_ds.shape}",
                                    )
                                )
                                break
                except FormatError as exc:
                    problems.append(
                        Problem(ds.path, f"unreadable source {source.file!r}: {exc}")
                    )
        else:
            for _offset, message in verify_dataset(ds):
                problems.append(Problem(ds.path, message))

    def walk(group: Group) -> None:
        for name in group.keys():
            child = group[name]
            if isinstance(child, Dataset):
                check_dataset(child)
            else:
                walk(child)

    walk(file)
    for path, message in pyramid_problems(file):
        problems.append(Problem(path, message))
    return problems
