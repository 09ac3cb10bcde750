"""Parallel file system cost model (Lustre-like) with a small
discrete-event scheduler for concurrent request streams.

The model captures the three storage properties the paper's analysis
rests on:

* **per-open overhead** — "there is a constant overhead in accessing a
  file on a typical disk-based file system" (§I);
* **IOPS bound** — "most storage devices are bound by input/output
  operations per second; having large numbers of I/O requests leads to
  long waiting queues and high contention" (§V-B);
* **shared aggregate bandwidth** over a fixed number of storage targets
  (OSTs) — "the Cori supercomputer has a fixed number of disk-based
  storage targets in its Lustre file system" (§VI-E).

Files are assigned round-robin to OSTs.  Each OST serves its queue of
requests first-come-first-served at ``per_request_overhead + bytes/
ost_bandwidth`` per request; a client additionally never exceeds
``client_bandwidth``.  The discrete-event ``schedule`` method returns
per-request completion times so callers can compute per-rank I/O time
under contention.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class IORequest:
    """One I/O request issued by a (simulated) rank.

    ``start`` is the earliest virtual time the request can be issued
    (usually the rank's clock); ``file_id`` selects the OST via
    round-robin; ``nbytes`` may be zero for pure-metadata operations
    (opens, stats).
    """

    rank: int
    file_id: int
    nbytes: int
    start: float = 0.0
    is_open: bool = False
    is_write: bool = False


@dataclass(frozen=True)
class StorageModel:
    """Cost parameters for a parallel file system."""

    ost_count: int = 248
    ost_bandwidth: float = 2.0e9  # bytes/s per storage target
    client_bandwidth: float = 1.6e9  # bytes/s per client process cap
    open_overhead: float = 4.0e-3  # seconds per file open (metadata RPC)
    per_request_overhead: float = 0.8e-3  # seconds per I/O request (seek+RPC)
    metadata_op_overhead: float = 1.0e-4  # stat / attribute read
    # A single file is striped over only this many OSTs (the Lustre
    # default), which caps the aggregate bandwidth of shared-file reads —
    # the reason file-per-process access can beat one merged file.
    default_stripe_count: int = 8

    def __post_init__(self) -> None:
        if self.ost_count < 1:
            raise ConfigError("need at least one OST")
        if min(self.ost_bandwidth, self.client_bandwidth) <= 0:
            raise ConfigError("bandwidths must be positive")
        if min(
            self.open_overhead, self.per_request_overhead, self.metadata_op_overhead
        ) < 0:
            raise ConfigError("overheads must be non-negative")
        if self.default_stripe_count < 1:
            raise ConfigError("stripe count must be >= 1")

    # -- single-stream costs -------------------------------------------------------
    def request_time(self, nbytes: int, is_open: bool = False) -> float:
        """Uncontended service time of one request."""
        if nbytes < 0:
            raise ConfigError("negative request size")
        overhead = self.open_overhead if is_open else self.per_request_overhead
        transfer = nbytes / min(self.ost_bandwidth, self.client_bandwidth)
        return overhead + transfer

    def sequential_read_time(self, nbytes: int, nrequests: int, nopens: int = 0) -> float:
        """Time for one process to issue requests back-to-back, no contention."""
        if nrequests < 0 or nopens < 0:
            raise ConfigError("negative counts")
        transfer = nbytes / min(self.ost_bandwidth, self.client_bandwidth)
        return nopens * self.open_overhead + nrequests * self.per_request_overhead + transfer

    @property
    def aggregate_bandwidth(self) -> float:
        return self.ost_count * self.ost_bandwidth

    def ost_for(self, file_id: int) -> int:
        return file_id % self.ost_count

    # -- discrete-event scheduling -----------------------------------------------
    def schedule(self, requests: list[IORequest]) -> dict[int, float]:
        """Serve a batch of concurrent requests; return per-rank finish times.

        Each OST is a FIFO server.  Requests are dispatched in
        ``(start, rank, arrival-order)`` order to the OST owning their
        file.  A request's service time is ``overhead + bytes/rate`` where
        the rate is the slower of the OST's bandwidth and the client cap.

        Returns a dict mapping rank → time its last request completed
        (ranks with no requests are absent).
        """
        import heapq

        ost_free = [0.0] * self.ost_count
        rank_free: dict[int, float] = {}
        finish: dict[int, float] = {}

        # Per-rank FIFO queues (a client issues its own requests in order),
        # globally dispatched greedily by earliest feasible start — an OST
        # serves whichever ready request reaches it first, so one slow
        # client never head-of-line-blocks an idle target.  A lazy
        # priority heap keeps dispatch at O(R log R): entries carry the
        # ready-time estimate they were pushed with and are re-pushed when
        # resource states have moved past the estimate.
        queues: dict[int, list[IORequest]] = {}
        for req in sorted(requests, key=lambda r: (r.rank, r.start)):
            queues.setdefault(req.rank, []).append(req)
        heads = {rank: 0 for rank in queues}
        rate = min(self.ost_bandwidth, self.client_bandwidth)

        def ready_of(rank: int) -> float:
            req = queues[rank][heads[rank]]
            ost = self.ost_for(req.file_id)
            return max(req.start, rank_free.get(rank, 0.0), ost_free[ost])

        heap: list[tuple[float, int]] = [
            (ready_of(rank), rank) for rank in queues
        ]
        heapq.heapify(heap)
        while heap:
            estimate, rank = heapq.heappop(heap)
            actual = ready_of(rank)
            if actual > estimate and heap and heap[0][0] < actual:
                # Stale estimate and someone else may be readier: re-queue.
                heapq.heappush(heap, (actual, rank))
                continue
            req = queues[rank][heads[rank]]
            heads[rank] += 1
            ost = self.ost_for(req.file_id)
            overhead = self.open_overhead if req.is_open else self.per_request_overhead
            done = actual + overhead + req.nbytes / rate
            ost_free[ost] = done
            rank_free[rank] = done
            finish[rank] = max(finish.get(rank, 0.0), done)
            if heads[rank] < len(queues[rank]):
                heapq.heappush(heap, (ready_of(rank), rank))
        return finish

    def makespan(self, requests: list[IORequest]) -> float:
        """Completion time of the whole batch (0.0 for an empty batch)."""
        finish = self.schedule(requests)
        return max(finish.values(), default=0.0)


@dataclass(frozen=True)
class BurstBufferModel(StorageModel):
    """SSD burst-buffer tier: far higher IOPS, similar bandwidth.

    The paper (§VI-E) notes that a Burst Buffer "has higher IOPS than the
    disk system" and would flatten the decaying I/O-efficiency trend; this
    preset exists for that ablation.
    """

    ost_count: int = 288
    ost_bandwidth: float = 6.5e9
    client_bandwidth: float = 3.2e9
    open_overhead: float = 2.5e-4
    per_request_overhead: float = 2.0e-5
    metadata_op_overhead: float = 2.0e-5
