"""Execution engines: pure-MPI ArrayUDF vs. the Hybrid (HAEE) engine.

Two modes:

* :meth:`BaseEngine.run` — actually execute a UDF over a merged DAS
  array with simulated MPI ranks (threads), ghost-zone reads, ApplyMT,
  and result assembly.  Used at test scale.
* :meth:`BaseEngine.estimate` — evaluate the same execution's virtual
  time and memory against the machine model at any scale.  This is what
  reproduces Fig. 8 (the pure-MPI OOM at 91 nodes and its read-time
  blow-up at 728 nodes) and the Fig. 11 scaling curves.

The engines differ only in process/thread geometry:

=============  ==============  =================  ====================
Engine         ranks per node  threads per rank   master-channel copies
=============  ==============  =================  ====================
MPIEngine      cores (16)      1                  one per rank
HybridEngine   1               cores (16)         one per node
=============  ==============  =================  ====================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.arrayudf.apply_mt import apply_mt
from repro.arrayudf.partition import partition_rows
from repro.arrayudf.stencil import Stencil
from repro.cluster.machine import ClusterSpec
from repro.cluster.memory import MemoryTracker
from repro.errors import ConfigError, OutOfMemoryError
from repro.simmpi.executor import run_spmd
from repro.utils.units import format_bytes


@dataclass(frozen=True)
class ComputeModel:
    """Converts processed samples into virtual compute seconds.

    ``seconds_per_sample`` is the calibrated per-input-sample cost of the
    full UDF pipeline on one core; ``thread_coordination`` is the
    fractional overhead HAEE pays per doubling of threads (Algorithm 1's
    barrier + merge), the effect the paper cites for pure-MPI ArrayUDF's
    slight compute edge at mid scale."""

    seconds_per_sample: float = 2.0e-8
    thread_coordination: float = 0.03

    def time(self, n_samples: float, threads: int = 1) -> float:
        if n_samples < 0 or threads < 1:
            raise ConfigError("invalid compute model inputs")
        serial = n_samples * self.seconds_per_sample
        if threads == 1:
            return serial
        return serial / threads * (1.0 + self.thread_coordination * math.log2(threads))


@dataclass(frozen=True)
class WorkloadSpec:
    """Scale parameters of an analysis run (estimate mode).

    ``master_bytes`` is the cross-correlation master channel each worker
    needs resident (Algorithm 3's ``Mfft``); ``working_multiplier`` is
    the pipeline's working set in units of its input bytes (float64
    intermediates + FFT scratch ≈ 6x a float32 input).
    """

    total_bytes: int
    n_files: int
    master_bytes: int = 0
    working_multiplier: float = 6.0
    output_ratio: float = 0.1  # output bytes per input byte
    itemsize: int = 4

    @property
    def total_samples(self) -> float:
        return self.total_bytes / self.itemsize

    @property
    def file_bytes(self) -> int:
        return self.total_bytes // max(1, self.n_files)


@dataclass
class EngineReport:
    """Outcome of one engine configuration at one scale."""

    engine: str
    nodes: int
    ranks_per_node: int
    threads_per_rank: int
    read_time: float = 0.0
    compute_time: float = 0.0
    write_time: float = 0.0
    peak_node_bytes: int = 0
    n_read_requests: int = 0
    failed: str | None = None
    result: Any = None

    @property
    def ranks(self) -> int:
        return self.nodes * self.ranks_per_node

    @property
    def cores_used(self) -> int:
        return self.nodes * self.ranks_per_node * self.threads_per_rank

    @property
    def total_time(self) -> float:
        return self.read_time + self.compute_time + self.write_time

    def summary(self) -> str:
        if self.failed:
            return f"{self.engine}@{self.nodes}n: FAILED ({self.failed})"
        return (
            f"{self.engine}@{self.nodes}n: read={self.read_time:.2f}s "
            f"compute={self.compute_time:.2f}s write={self.write_time:.2f}s "
            f"peak={format_bytes(self.peak_node_bytes)}"
        )


class BaseEngine:
    """Shared machinery of the two engines."""

    name = "base"

    def __init__(
        self,
        cluster: ClusterSpec,
        nodes: int,
        ranks_per_node: int,
        threads_per_rank: int,
        compute: ComputeModel | None = None,
    ):
        if nodes < 1 or nodes > cluster.nodes:
            raise ConfigError(
                f"{nodes} nodes requested but cluster has {cluster.nodes}"
            )
        if ranks_per_node < 1 or threads_per_rank < 1:
            raise ConfigError("ranks/threads must be >= 1")
        if ranks_per_node * threads_per_rank > cluster.node.cores:
            raise ConfigError(
                f"{ranks_per_node} ranks x {threads_per_rank} threads exceed "
                f"{cluster.node.cores} cores/node"
            )
        self.cluster = cluster
        self.nodes = nodes
        self.ranks_per_node = ranks_per_node
        self.threads_per_rank = threads_per_rank
        self.compute = compute if compute is not None else ComputeModel()

    @property
    def ranks(self) -> int:
        return self.nodes * self.ranks_per_node

    # -- estimate mode ---------------------------------------------------------
    def plan_memory(self, workload: WorkloadSpec) -> MemoryTracker:
        """Account one node's memory for this geometry; raises
        :class:`OutOfMemoryError` exactly when an MPI job would die."""
        mem = MemoryTracker(self.cluster.node.memory, 1)
        node_input = workload.total_bytes // self.nodes
        mem.allocate(0, node_input, "input-block")
        if self.threads_per_rank == 1:
            # Pure MPI: every rank materialises its own float64 pipeline
            # over its whole block, and its own master-channel copy.
            mem.allocate(
                0, int(node_input * workload.working_multiplier), "working"
            )
            mem.allocate(
                0, self.ranks_per_node * workload.master_bytes, "master-copies"
            )
        else:
            # Hybrid: threads stream channel-by-channel; the working set
            # is per-thread channel buffers, and one shared master copy.
            mem.allocate(0, workload.master_bytes, "master")
            per_thread = int(workload.master_bytes * workload.working_multiplier)
            mem.allocate(
                0,
                self.ranks_per_node * self.threads_per_rank * per_thread,
                "thread-working",
            )
        return mem

    def estimate_read_time(
        self, workload: WorkloadSpec, read_pattern: str = "native"
    ) -> tuple[float, int]:
        """Read-phase time under one of two access patterns.

        ``"native"`` — ArrayUDF's own I/O (the Fig. 8 comparison): every
        rank pulls its channel block from each of the n files, p x n
        requests total, bounded by the slowest of (per-rank serial
        stream, file-system IOPS, aggregate bandwidth).

        ``"comm-avoiding"`` — DASSA's storage engine (Fig. 11): each rank
        reads whole files (n requests total) and one all-to-all
        redistributes, evaluated by the storage DES + network model.
        """
        storage = self.cluster.storage
        p = self.ranks
        n = workload.n_files
        if read_pattern == "comm-avoiding":
            from repro.storage.model import model_communication_avoiding

            cost = model_communication_avoiding(
                self.cluster, p, n, workload.file_bytes
            )
            return cost.total, cost.n_requests
        if read_pattern != "native":
            raise ConfigError(f"unknown read pattern {read_pattern!r}")
        per_rank_bytes = workload.total_bytes / p
        per_request = storage.open_overhead + storage.per_request_overhead
        per_rank_serial = n * per_request + per_rank_bytes / storage.client_bandwidth
        iops_bound = p * n * per_request / storage.ost_count
        bw_bound = workload.total_bytes / storage.aggregate_bandwidth
        return max(per_rank_serial, iops_bound, bw_bound), p * n

    def estimate_write_time(self, workload: WorkloadSpec) -> float:
        """Output written as one big collective array — identical for both
        engines (the paper's write bars match)."""
        storage = self.cluster.storage
        output_bytes = workload.total_bytes * workload.output_ratio
        per_rank = output_bytes / self.ranks
        return max(
            output_bytes / storage.aggregate_bandwidth,
            per_rank / storage.client_bandwidth
            + storage.per_request_overhead
            + storage.open_overhead,
            self.ranks * storage.per_request_overhead / storage.ost_count,
        )

    def estimate(
        self, workload: WorkloadSpec, read_pattern: str = "native"
    ) -> EngineReport:
        """Virtual-time/memory evaluation of this geometry at any scale."""
        report = EngineReport(
            engine=self.name,
            nodes=self.nodes,
            ranks_per_node=self.ranks_per_node,
            threads_per_rank=self.threads_per_rank,
        )
        try:
            mem = self.plan_memory(workload)
        except OutOfMemoryError as exc:
            report.failed = f"out of memory: {exc}"
            return report
        report.peak_node_bytes = mem.peak_node()[1]
        report.read_time, report.n_read_requests = self.estimate_read_time(
            workload, read_pattern
        )
        samples_per_worker = workload.total_samples / self.ranks
        report.compute_time = self.compute.time(
            samples_per_worker, self.threads_per_rank
        )
        report.write_time = self.estimate_write_time(workload)
        return report

    # -- real execution ------------------------------------------------------------
    def run(
        self,
        data_source: Any,
        udf: Callable[[Stencil], float],
        halo: int = 0,
        row_stride: int = 1,
        col_stride: int = 1,
        boundary: str = "error",
    ) -> EngineReport:
        """Execute ``udf`` over a 2-D array source with this geometry.

        ``data_source`` is a numpy array, an hdf5lite :class:`Dataset`,
        or anything with ``shape`` + ``__getitem__`` (an open VCA's
        ``dataset``; a :class:`~repro.storage.chunks.SourceView` streams
        through :mod:`repro.core.pipeline` instead).
        Each rank reads its row block (+halo), runs ApplyMT with this
        engine's thread count, and rank 0 assembles the stacked output
        into ``report.result``.
        """
        shape = tuple(data_source.shape)
        if len(shape) != 2:
            raise ConfigError(f"need a 2-D source, got shape {shape}")
        p = self.ranks
        threads = self.threads_per_rank
        engine = self

        def rank_fn(comm):
            part = partition_rows(shape, p, comm.rank, halo=halo)
            block = np.asarray(data_source[part.read_row_lo : part.read_row_hi, :])
            comm.charge_io(
                engine.cluster.storage.sequential_read_time(
                    part.read_nbytes(), nrequests=1, nopens=1
                ),
                op="read",
                nbytes=part.read_nbytes(),
            )
            out = apply_mt(
                block,
                udf,
                threads=threads,
                core_rows=(part.core_offset, part.core_offset + part.core_rows),
                row_stride=row_stride,
                col_stride=col_stride,
                boundary=boundary,
            )
            comm.charge_compute(engine.compute.time(block.size, threads))
            gathered = comm.gather(out, root=0)
            if comm.rank == 0:
                return np.concatenate(gathered, axis=0)
            return None

        spmd = run_spmd(
            rank_fn,
            p,
            cluster=self.cluster,
            ranks_per_node=self.ranks_per_node,
        )
        report = EngineReport(
            engine=self.name,
            nodes=self.nodes,
            ranks_per_node=self.ranks_per_node,
            threads_per_rank=self.threads_per_rank,
        )
        phases = spmd.phase_totals()
        report.read_time = phases.get("io", 0.0)
        report.compute_time = phases.get("compute", 0.0)
        report.result = spmd.results[0]
        return report


class MPIEngine(BaseEngine):
    """Original ArrayUDF: one MPI rank per core, no threads."""

    name = "mpi-arrayudf"

    def __init__(
        self,
        cluster: ClusterSpec,
        nodes: int,
        ranks_per_node: int | None = None,
        compute: ComputeModel | None = None,
    ):
        super().__init__(
            cluster,
            nodes,
            ranks_per_node if ranks_per_node is not None else cluster.node.cores,
            threads_per_rank=1,
            compute=compute,
        )


class HybridEngine(BaseEngine):
    """HAEE: one MPI rank per node, OpenMP-style threads inside."""

    name = "hybrid-arrayudf"

    def __init__(
        self,
        cluster: ClusterSpec,
        nodes: int,
        threads_per_rank: int | None = None,
        compute: ComputeModel | None = None,
    ):
        super().__init__(
            cluster,
            nodes,
            ranks_per_node=1,
            threads_per_rank=(
                threads_per_rank if threads_per_rank is not None else cluster.node.cores
            ),
            compute=compute,
        )
