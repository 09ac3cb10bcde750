"""Automatic system-setting selection (the paper's stated future work).

"How to automatically select system settings, such as the number of
nodes, to run the analysis code is another topic we will explore in
future" (paper §VIII).  With the machine model in hand this is a
search: evaluate engine geometries (node count, engine kind, threads)
against the workload's estimate and pick by objective — fastest,
cheapest (node-hours), or best parallel efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arrayudf.engine import (
    BaseEngine,
    ComputeModel,
    EngineReport,
    HybridEngine,
    MPIEngine,
    WorkloadSpec,
)
from repro.cluster.machine import ClusterSpec
from repro.errors import ConfigError


@dataclass(frozen=True)
class PlanOption:
    """One evaluated configuration."""

    engine: str
    nodes: int
    ranks_per_node: int
    threads_per_rank: int
    total_time: float
    node_hours: float
    feasible: bool
    reason: str = ""

    @property
    def cores_used(self) -> int:
        return self.nodes * self.ranks_per_node * self.threads_per_rank


def _evaluate(engine: BaseEngine, workload: WorkloadSpec, read_pattern: str) -> PlanOption:
    report: EngineReport = engine.estimate(workload, read_pattern=read_pattern)
    if report.failed:
        return PlanOption(
            engine=engine.name,
            nodes=engine.nodes,
            ranks_per_node=engine.ranks_per_node,
            threads_per_rank=engine.threads_per_rank,
            total_time=float("inf"),
            node_hours=float("inf"),
            feasible=False,
            reason=report.failed,
        )
    return PlanOption(
        engine=engine.name,
        nodes=engine.nodes,
        ranks_per_node=engine.ranks_per_node,
        threads_per_rank=engine.threads_per_rank,
        total_time=report.total_time,
        node_hours=engine.nodes * report.total_time / 3600.0,
        feasible=True,
    )


def plan(
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    node_counts: list[int] | None = None,
    cores_per_node: int | None = None,
    objective: str = "time",
    read_pattern: str = "comm-avoiding",
    compute: ComputeModel | None = None,
    include_mpi_engine: bool = True,
) -> list[PlanOption]:
    """Evaluate configurations; returns options sorted best-first.

    ``objective``: ``"time"`` (fastest wall clock), ``"node_hours"``
    (cheapest allocation), or ``"balanced"`` (node-hours x time — a
    compromise that penalises both stragglers and waste).
    """
    if objective not in ("time", "node_hours", "balanced"):
        raise ConfigError(f"unknown objective {objective!r}")
    if node_counts is None:
        node_counts = [n for n in (8, 16, 32, 64, 91, 182, 364, 728, 1456) if n <= cluster.nodes]
    if not node_counts:
        raise ConfigError("no node counts to evaluate")
    if any(n < 1 or n > cluster.nodes for n in node_counts):
        raise ConfigError(f"node counts must be within [1, {cluster.nodes}]")
    cores = cores_per_node if cores_per_node is not None else cluster.node.cores
    if not (1 <= cores <= cluster.node.cores):
        raise ConfigError(f"cores_per_node must be within [1, {cluster.node.cores}]")

    options: list[PlanOption] = []
    for nodes in node_counts:
        sized = cluster.with_nodes(max(cluster.nodes, nodes))
        options.append(
            _evaluate(
                HybridEngine(sized, nodes, threads_per_rank=cores, compute=compute),
                workload,
                read_pattern,
            )
        )
        if include_mpi_engine:
            options.append(
                _evaluate(
                    MPIEngine(sized, nodes, ranks_per_node=cores, compute=compute),
                    workload,
                    read_pattern,
                )
            )

    def score(option: PlanOption) -> float:
        if not option.feasible:
            return float("inf")
        if objective == "time":
            return option.total_time
        if objective == "node_hours":
            return option.node_hours
        return option.node_hours * option.total_time

    options.sort(key=lambda option: (score(option), option.nodes))
    return options


def best_plan(
    cluster: ClusterSpec,
    workload: WorkloadSpec,
    **kwargs,
) -> PlanOption:
    """The single best feasible configuration; raises if none fits."""
    options = plan(cluster, workload, **kwargs)
    for option in options:
        if option.feasible:
            return option
    raise ConfigError(
        "no feasible configuration: every evaluated geometry fails "
        f"(first reason: {options[0].reason if options else 'none evaluated'})"
    )


# ---------------------------------------------------------------------------
# streaming chunk/thread tuning (used by the query optimizer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamTuning:
    """The chunk size and thread count selected for one streamed run."""

    chunk_samples: int
    threads: int
    est_seconds: float
    candidates: int


def tune_stream(
    cluster: ClusterSpec,
    n_channels: int,
    n_samples: int,
    halo: tuple[int, int] = (0, 0),
    itemsize: int = 8,
    memory_fraction: float = 0.25,
    work_per_byte: float = 40.0,
) -> StreamTuning:
    """Select ``(chunk_samples, threads)`` for a single-node streamed run.

    The search space is power-of-two chunk lengths (>= 4096, capped at the
    record) whose resident block — including the operator chain's declared
    ``halo`` re-read on every chunk — fits ``memory_fraction`` of one
    node's memory, crossed with thread counts up to the node's cores.
    The cost model charges :meth:`~repro.cluster.storage.StorageModel.
    sequential_read_time` for the total bytes moved (halos are re-read
    once per chunk, so small chunks pay more) plus compute at
    ``core_flops`` with the ApplyMT diminishing-returns efficiency
    ``n / (1 + 0.05 * (n - 1))``.  Deterministic: depends only on the
    machine model and the declared geometry, never on the data.
    """
    if n_channels < 1 or n_samples < 1:
        raise ConfigError("tune_stream needs a non-empty record")
    left, right = halo
    if left < 0 or right < 0:
        raise ConfigError("halo must be non-negative")
    node = cluster.node
    mem_budget = node.memory * memory_fraction
    row_bytes = n_channels * itemsize

    chunks = []
    c = 4096
    while c < n_samples:
        chunks.append(c)
        c *= 2
    chunks.append(n_samples)
    chunks = [
        c for c in chunks if (c + left + right) * row_bytes <= mem_budget
    ] or [max(1, int(mem_budget // row_bytes) - left - right)]

    threads_grid = sorted(
        {1, 2, 4, 8, 16, 32, node.cores} & set(range(1, node.cores + 1))
    )

    best = None
    for chunk in chunks:
        n_chunks = -(-n_samples // chunk)
        read_bytes = (n_samples + (n_chunks - 1) * (left + right)) * row_bytes
        io = cluster.storage.sequential_read_time(read_bytes, n_chunks)
        work = n_samples * row_bytes * work_per_byte
        for threads in threads_grid:
            eff = threads / (1.0 + 0.05 * (threads - 1))
            total = io + work / (cluster.core_flops * eff)
            key = (total, chunk, threads)
            if best is None or key < best[0]:
                best = (key, chunk, threads, total)
    _, chunk, threads, total = best
    return StreamTuning(
        chunk_samples=int(chunk),
        threads=int(threads),
        est_seconds=float(total),
        candidates=len(chunks) * len(threads_grid),
    )
