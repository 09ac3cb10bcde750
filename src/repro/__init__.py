"""repro — reproduction of DASSA (IPDPS 2020).

DASSA is a parallel framework for Distributed Acoustic Sensing (DAS) data
storage and analysis on HPC systems.  This package reimplements the full
system described in the paper:

* :mod:`repro.hdf5lite` — hierarchical array file format (HDF5 substitute)
* :mod:`repro.simmpi` — simulated MPI runtime with virtual clocks
* :mod:`repro.cluster` — machine model (Cori-like nodes, network, Lustre)
* :mod:`repro.storage` — DASS storage engine (das_search, VCA/RCA, the
  LAV as ``SourceView``, collective-per-file and communication-avoiding
  parallel readers)
* :mod:`repro.daslib` — DasLib DSP library (Table II of the paper)
* :mod:`repro.arrayudf` — ArrayUDF with Stencil/Apply and the hybrid
  ApplyMT engine (HAEE, Algorithm 1)
* :mod:`repro.core` — the DASSA facade and the two case-study pipelines
  (local similarity, Algorithm 2; traffic-noise interferometry, Algorithm 3)
* :mod:`repro.synthetic` — synthetic DAS data generator

Quickstart::

    from repro import DASSA
    from repro.synthetic import generate_dataset

    files = generate_dataset("data/", minutes=6, channels=256)
    dassa = DASSA()
    vca = dassa.search_and_merge("data/", start="170620100545", count=6)
    result = dassa.local_similarity(vca)
"""

from repro._version import __version__
from repro.errors import (
    AdmissionQueueFullError,
    ConfigError,
    FormatError,
    MPIError,
    OutOfMemoryError,
    QuotaExceededError,
    ReproError,
    SelectionError,
    ServeError,
    StorageError,
    UDFError,
)

def __getattr__(name: str):
    # Deferred import: keeps `import repro` cheap and avoids pulling the
    # full framework in for users who only want a substrate package.
    if name == "DASSA":
        from repro.core.framework import DASSA

        return DASSA
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "DASSA",
    "__version__",
    "ReproError",
    "FormatError",
    "SelectionError",
    "StorageError",
    "MPIError",
    "OutOfMemoryError",
    "UDFError",
    "ConfigError",
    "ServeError",
    "QuotaExceededError",
    "AdmissionQueueFullError",
]
