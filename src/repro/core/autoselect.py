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
