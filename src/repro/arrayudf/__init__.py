"""ArrayUDF — structural-locality UDF execution on distributed arrays.

Reimplements the authors' prior system (HPDC'17) that DASSA extends:

* :class:`~repro.arrayudf.stencil.Stencil` — a cell plus its
  neighbourhood, the argument every user-defined function receives,
* :mod:`repro.arrayudf.partition` — block partitioning with ghost zones
  so UDFs touching neighbours need no communication,
* :func:`~repro.arrayudf.apply.apply` — the MPI-parallel ``B =
  Apply(A, f)`` operator,
* :func:`~repro.arrayudf.apply_mt.apply_mt` — the multithreaded Apply of
  DASSA's Hybrid ArrayUDF Execution Engine (Algorithm 1),
* :func:`~repro.arrayudf.fuse.map_blocks_mt` — the same static-schedule
  threading for whole fused operator chains
  (:func:`~repro.arrayudf.fuse.partition_row_blocks` is the schedule the
  streaming executor splits a single-chunk plan's rows by),
* :class:`~repro.arrayudf.engine.HybridEngine` — HAEE: one rank per
  node + threads, versus :class:`~repro.arrayudf.engine.MPIEngine`:
  one rank per core (the Fig. 8 comparison).  In estimate mode both
  turn samples into seconds through a fixed
  :class:`~repro.arrayudf.engine.ComputeModel`; the machine-speed probe
  that normalises measured timings is ``benchmarks/harness/calib.py``.
"""

from repro.arrayudf.apply import apply
from repro.arrayudf.apply_mt import apply_mt
from repro.arrayudf.engine import EngineReport, HybridEngine, MPIEngine
from repro.arrayudf.fuse import map_blocks_mt, partition_row_blocks
from repro.arrayudf.partition import Partition, partition_1d, partition_rows
from repro.arrayudf.stencil import Stencil

__all__ = [
    "Stencil",
    "Partition",
    "partition_1d",
    "partition_rows",
    "apply",
    "apply_mt",
    "map_blocks_mt",
    "partition_row_blocks",
    "MPIEngine",
    "HybridEngine",
    "EngineReport",
]
