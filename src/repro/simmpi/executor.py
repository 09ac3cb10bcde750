"""SPMD launcher: run a function on P simulated ranks.

``run_spmd(fn, size)`` starts ``size`` threads, each with its own
:class:`~repro.simmpi.communicator.Communicator`, collects per-rank
return values, and converts any rank failure into a single raised
exception (aborting the fabric first so no other rank deadlocks in a
blocked receive or collective).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.machine import ClusterSpec
from repro.errors import MPIError
from repro.simmpi.communicator import Communicator
from repro.simmpi.fabric import Fabric
from repro.simmpi.tracing import Tracer
from repro.utils.timer import VirtualTimer


@dataclass
class SPMDResult:
    """Outcome of an SPMD run."""

    results: list[Any]
    clocks: list[VirtualTimer]
    tracers: list[Tracer] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.results)

    @property
    def makespan(self) -> float:
        """Virtual completion time of the slowest rank."""
        return max((clock.now for clock in self.clocks), default=0.0)

    def phase_totals(self) -> dict[str, float]:
        """Max-over-ranks virtual time per phase (io / comm / compute)."""
        totals: dict[str, float] = {}
        for clock in self.clocks:
            for phase, seconds in clock.phases.items():
                totals[phase] = max(totals.get(phase, 0.0), seconds)
        return totals

    def schedules(self) -> list[list[tuple[str, int, int]]]:
        return [tracer.schedule() for tracer in self.tracers]


def run_spmd(
    fn: Callable[..., Any],
    size: int,
    cluster: ClusterSpec | None = None,
    ranks_per_node: int | None = None,
    args: tuple = (),
    kwargs: dict[str, Any] | None = None,
    trace: bool = True,
    recv_timeout: float = 60.0,
) -> SPMDResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` ranks; return results.

    ``cluster`` supplies the network cost model and the rank→node mapping
    (``ranks_per_node`` defaults to packing all ranks on one node when no
    cluster is given, or ``cluster.node.cores`` otherwise).  Raises
    :class:`MPIError` carrying the first rank failure.
    """
    if size < 1:
        raise MPIError("size must be >= 1")
    if kwargs is None:
        kwargs = {}
    if ranks_per_node is None:
        ranks_per_node = cluster.node.cores if cluster is not None else size

    fabric = Fabric(size)
    clocks = [VirtualTimer() for _ in range(size)]
    tracers = [Tracer(rank, enabled=trace) for rank in range(size)]
    comms = [
        Communicator(
            rank,
            size,
            fabric,
            clock=clocks[rank],
            cluster=cluster,
            ranks_per_node=ranks_per_node,
            tracer=tracers[rank],
            recv_timeout=recv_timeout,
        )
        for rank in range(size)
    ]

    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []
    errors_lock = threading.Lock()

    def worker(rank: int) -> None:
        try:
            results[rank] = fn(comms[rank], *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must not lose rank errors
            with errors_lock:
                errors.append((rank, exc))
            fabric.abort(exc)

    if size == 1:
        # Fast path: no threading needed for a single rank.
        worker(0)
    else:
        threads = [
            threading.Thread(target=worker, args=(rank,), name=f"simmpi-rank-{rank}")
            for rank in range(size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    if errors:
        errors.sort(key=lambda pair: pair[0])
        rank, first = errors[0]
        # Prefer the root cause over secondary "aborted" errors on other ranks.
        primary = next(
            ((r, e) for r, e in errors if not isinstance(e, MPIError)),
            (rank, first),
        )
        raise MPIError(
            f"rank {primary[0]} failed: {type(primary[1]).__name__}: {primary[1]}"
        ) from primary[1]

    return SPMDResult(results=results, clocks=clocks, tracers=tracers)
