"""DASS — the DAS data storage engine (paper §IV).

Components:

* :mod:`repro.storage.metadata` — the two-level key-value metadata model
  (Fig. 4) and timestamp handling,
* :mod:`repro.storage.dasfile` — per-minute DAS file reader/writer on the
  hdf5lite format,
* :mod:`repro.storage.search` — ``das_search``: timestamp-range and
  regex queries over a directory of DAS files (§IV-A),
* :mod:`repro.storage.vca` / :mod:`repro.storage.rca` — virtually /
  really concatenated arrays,
* :mod:`repro.storage.parallel_read` — the "collective-per-file" and
  "communication-avoiding" parallel readers (§IV-B, Fig. 5) plus direct
  RCA reads,
* :mod:`repro.storage.model` — closed-form/DES evaluation of the same
  read schedules for rank counts too large to thread,
* :mod:`repro.storage.chunks` — streaming chunk sources feeding the
  analysis executor time-blocks out of VCAs, datasets and arrays, and
  :class:`~repro.storage.chunks.SourceView`, the paper's logical array
  view (LAV: a channel range, time window and stride of a source).
"""

from repro.storage.chunks import (
    ArraySource,
    ChunkSource,
    DatasetSource,
    as_source,
    auto_chunk_samples,
    iter_intervals,
    open_stream,
)
from repro.storage.dasfile import DASFile, read_das_file, write_das_file
from repro.storage.gaps import GapMap, GapSpan
from repro.storage.metadata import (
    DASMetadata,
    format_timestamp,
    parse_timestamp,
    timestamp_add_seconds,
)
from repro.storage.parallel_read import (
    read_rca_direct,
    read_vca_collective_per_file,
    read_vca_communication_avoiding,
)
from repro.storage.rca import create_rca
from repro.storage.search import DASFileInfo, das_search, scan_directory
from repro.storage.vca import create_vca, open_vca

__all__ = [
    "DASMetadata",
    "parse_timestamp",
    "format_timestamp",
    "timestamp_add_seconds",
    "DASFile",
    "write_das_file",
    "read_das_file",
    "das_search",
    "scan_directory",
    "DASFileInfo",
    "create_vca",
    "open_vca",
    "create_rca",
    "GapMap",
    "GapSpan",
    "read_vca_collective_per_file",
    "read_vca_communication_avoiding",
    "read_rca_direct",
    "ChunkSource",
    "ArraySource",
    "DatasetSource",
    "open_stream",
    "as_source",
    "iter_intervals",
    "auto_chunk_samples",
]
