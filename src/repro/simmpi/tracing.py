"""Per-operation tracing of the simulated MPI runtime.

Every communication or I/O charge appends a :class:`TraceEvent`.  The
trace serves two purposes:

* benchmark reporting (how much virtual time went to sends vs broadcasts
  vs reads), and
* **trace equivalence tests**: the discrete-event evaluation used for
  1000+-rank experiments must generate the same (op, bytes) schedule the
  threaded runtime actually executed at small rank counts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TraceEvent:
    """One traced operation on one rank."""

    rank: int
    op: str  # "send", "recv", "bcast", "alltoallv", "read", ...
    nbytes: int
    peer: int  # destination/source/root; -1 for symmetric collectives
    t_start: float
    t_end: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class Tracer:
    """Collects events for a single rank (thread-confined, no locking)."""

    __slots__ = ("rank", "events", "enabled")

    def __init__(self, rank: int, enabled: bool = True):
        self.rank = rank
        self.events: list[TraceEvent] = []
        self.enabled = enabled

    def record(self, op: str, nbytes: int, peer: int, t_start: float, t_end: float) -> None:
        if self.enabled:
            self.events.append(TraceEvent(self.rank, op, nbytes, peer, t_start, t_end))

    def schedule(self) -> list[tuple[str, int, int]]:
        """The (op, nbytes, peer) sequence — the timing-free schedule."""
        return [(e.op, e.nbytes, e.peer) for e in self.events]
