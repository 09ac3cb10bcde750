"""hdf5lite — a from-scratch hierarchical array file format.

A minimal but real substitute for HDF5/h5py, providing exactly what the
DASS storage engine needs:

* hierarchical **groups** with key-value **attributes** (the two-level DAS
  metadata model of the paper's Fig. 4),
* N-dimensional **datasets** with contiguous or chunked layout,
* **hyperslab** partial reads that touch only the required byte ranges
  (every contiguous run costs one seek + one read, all counted by
  :class:`repro.utils.IOStats`), and hyperslab writes into a contiguous
  dataset without a checksum sidecar,
* **virtual datasets** that stitch regions of datasets in other files into
  one logical array — the mechanism behind the Virtually Concatenated
  Array (VCA),
* per-chunk **codecs** (lossless and tolerance-bounded lossy, see
  :mod:`repro.hdf5lite.codecs`) selected by a ``repro:codec`` attribute,
  composing with CRC32 sidecars (checksum the encoded bytes) and the
  block cache (admit decoded chunks).  A chunk and a checksummed block
  are stored once, with their CRC, when the dataset is created; nothing
  rewrites them.

File layout (version 1)::

    [header: magic, version, meta_offset, meta_len]
    [raw dataset bytes ...]
    [metadata: JSON-encoded group tree]

The metadata footer is rewritten on close; datasets are appended to the
data region.
"""

from repro.hdf5lite.attributes import Attributes
from repro.hdf5lite.cache import BlockCache, CacheConfig, FilePool
from repro.hdf5lite.checksum import checksum_info
from repro.hdf5lite.codecs import (
    CODEC_ATTR,
    Codec,
    DeltaZlibCodec,
    QuantizeCodec,
    TransposeZlibCodec,
    available_codecs,
    register_codec,
    resolve_codec,
)
from repro.hdf5lite.dataset import Dataset
from repro.hdf5lite.file import File, Group
from repro.hdf5lite.hyperslab import (
    Hyperslab,
    gather_spans,
    normalize_selection,
    plan_spans,
    selection_shape,
)
from repro.hdf5lite.pyramid import (
    PYRAMID_GROUP,
    PyramidLevel,
    pyramid_levels,
    pyramid_problems,
)
from repro.hdf5lite.virtual import VirtualSource

__all__ = [
    "File",
    "Group",
    "Dataset",
    "Attributes",
    "Hyperslab",
    "VirtualSource",
    "BlockCache",
    "CacheConfig",
    "FilePool",
    "checksum_info",
    "CODEC_ATTR",
    "Codec",
    "DeltaZlibCodec",
    "TransposeZlibCodec",
    "QuantizeCodec",
    "available_codecs",
    "register_codec",
    "resolve_codec",
    "normalize_selection",
    "selection_shape",
    "plan_spans",
    "gather_spans",
    "PYRAMID_GROUP",
    "PyramidLevel",
    "pyramid_levels",
    "pyramid_problems",
]
