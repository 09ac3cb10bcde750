"""Per-minute DAS file reader/writer.

One acquisition file holds a 2-D ``channel x time`` array (dataset
``DataCT``) plus the two-level metadata of Fig. 4: global KV pairs at the
root and one ``Measurement/<i>`` group per channel carrying per-channel
KV pairs.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import StorageError
from repro.hdf5lite import File
from repro.storage.metadata import DASMetadata
from repro.utils.iostats import IOStats

DATASET_NAME = "DataCT"
CHANNEL_GROUP = "Measurement"


def das_filename(timestamp: str, prefix: str = "westSac") -> str:
    """Acquisition-style file name: ``<prefix>_<yymmddhhmmss>.h5``."""
    return f"{prefix}_{timestamp}.h5"


def write_das_file(
    path: str | os.PathLike,
    data: np.ndarray,
    metadata: DASMetadata,
    channel_groups: bool = True,
    dtype: object = np.float32,
    iostats: IOStats | None = None,
    checksum: bool = False,
    chunks: tuple[int, int] | None = None,
    codec: object = None,
) -> str:
    """Write one DAS file; returns the path.

    ``data`` is ``(channels, samples)``.  With ``channel_groups`` the
    per-channel ``Measurement/<i>`` metadata groups of Fig. 4 are
    written (1-based indices, as in the paper).  ``checksum=True`` stores
    a per-block CRC32 sidecar on ``DataCT`` so readers detect silent
    corruption (see :mod:`repro.hdf5lite.checksum`).

    ``codec`` selects per-chunk compression for ``DataCT`` (see
    :mod:`repro.hdf5lite.codecs`); codecs require a chunked layout, so
    when ``chunks`` is not given the data is chunked as all channels ×
    up to 8192 samples (whole-channel-block reads stay one chunk run).
    Readers need no flag — the codec rides in the file's attributes.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise StorageError(f"DAS data must be 2-D (channels, samples); got {data.shape}")
    n_channels, n_samples = data.shape
    if metadata.n_channels and metadata.n_channels != n_channels:
        raise StorageError(
            f"metadata says {metadata.n_channels} channels, data has {n_channels}"
        )
    meta = DASMetadata(
        sampling_frequency=metadata.sampling_frequency,
        spatial_resolution=metadata.spatial_resolution,
        timestamp=metadata.timestamp,
        n_channels=n_channels,
        extras=dict(metadata.extras),
    )
    if codec is not None and chunks is None:
        chunks = (n_channels, min(n_samples, 8192))
    path = os.fspath(path)
    with File(path, "w", iostats=iostats) as f:
        f.attrs.update_many(meta.to_attrs())
        f.create_dataset(
            DATASET_NAME,
            data=data.astype(dtype, copy=False),
            chunks=chunks,
            codec=codec,
            checksum=checksum,
        )
        if channel_groups:
            measurement = f.create_group(CHANNEL_GROUP)
            for ch in range(1, n_channels + 1):
                g = measurement.create_group(str(ch))
                g.attrs["Array dimension"] = 1
                g.attrs["Number of raw data values"] = n_samples
    return path


def read_das_file(
    path: str | os.PathLike, iostats: IOStats | None = None
) -> tuple[np.ndarray, DASMetadata]:
    """Read a whole DAS file: ``(data, metadata)``."""
    with File(path, "r", iostats=iostats) as f:
        metadata = DASMetadata.from_attrs(dict(f.attrs))
        data = f.dataset(DATASET_NAME).read()
    return data, metadata


def read_das_metadata(
    path: str | os.PathLike, iostats: IOStats | None = None
) -> tuple[DASMetadata, tuple[int, ...]]:
    """Read only the metadata (and dataset shape) — no array data I/O."""
    with File(path, "r", iostats=iostats) as f:
        metadata = DASMetadata.from_attrs(dict(f.attrs))
        shape = f.dataset(DATASET_NAME).shape
    return metadata, shape


class DASFile:
    """An open DAS file handle with typed accessors.

    Usage::

        with DASFile(path) as das:
            chunk = das.data[0:64, :]          # partial read
            fs = das.metadata.sampling_frequency
    """

    def __init__(self, path: str | os.PathLike, iostats: IOStats | None = None):
        self._file = File(path, "r", iostats=iostats)
        try:
            self.metadata = DASMetadata.from_attrs(dict(self._file.attrs))
        except StorageError:
            self._file.close()
            raise
        self.path = os.fspath(path)

    @property
    def data(self):
        """The ``DataCT`` dataset (lazily sliceable)."""
        return self._file.dataset(DATASET_NAME)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "DASFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
