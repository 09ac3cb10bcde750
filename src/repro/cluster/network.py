"""Interconnect cost model (α-β with tree collectives).

Every transfer of ``n`` bytes costs ``α + n/β`` where α is latency and β
bandwidth.  Intra-node transfers (between ranks on the same node) use the
faster shared-memory parameters.  Collectives follow the standard
binomial-tree / ring cost formulas used in MPI performance modelling —
the same reasoning the paper applies when counting "O(n) broadcasts" for
collective-per-file I/O versus "O(n/p) exchanges" for the
communication-avoiding method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class NetworkModel:
    """α-β interconnect model.

    Parameters
    ----------
    latency:
        Inter-node point-to-point latency (seconds).
    bandwidth:
        Inter-node point-to-point bandwidth (bytes/second).
    intra_latency / intra_bandwidth:
        Same-node (shared-memory) parameters.
    """

    latency: float = 1.5e-6
    bandwidth: float = 8.0e9
    intra_latency: float = 3.0e-7
    intra_bandwidth: float = 4.0e10

    def __post_init__(self) -> None:
        if min(self.latency, self.intra_latency) < 0:
            raise ConfigError("latencies must be non-negative")
        if min(self.bandwidth, self.intra_bandwidth) <= 0:
            raise ConfigError("bandwidths must be positive")

    # -- point to point ---------------------------------------------------------
    def p2p_time(self, nbytes: int, same_node: bool = False) -> float:
        """Time to move ``nbytes`` between two ranks."""
        if nbytes < 0:
            raise ConfigError("negative message size")
        if same_node:
            return self.intra_latency + nbytes / self.intra_bandwidth
        return self.latency + nbytes / self.bandwidth

    # -- collectives ---------------------------------------------------------------
    @staticmethod
    def _rounds(p: int) -> int:
        if p < 1:
            raise ConfigError("communicator size must be >= 1")
        return max(1, math.ceil(math.log2(p))) if p > 1 else 0

    def bcast_time(self, nbytes: int, p: int) -> float:
        """Pipelined binomial-tree broadcast: ceil(log2 p) latency rounds,
        but the payload is chunked down the tree so the bandwidth term is
        paid once (the large-message regime of production MPI bcasts)."""
        rounds = self._rounds(p)
        if rounds == 0:
            return 0.0
        return rounds * self.latency + nbytes / self.bandwidth

    def allreduce_time(self, nbytes: int, p: int) -> float:
        """Tree reduce + broadcast (the classic non-rabenseifner bound):
        a reduction has a broadcast's round structure, so twice it."""
        return 2 * self.bcast_time(nbytes, p)

    def gather_time(self, nbytes_per_rank: int, p: int) -> float:
        """Binomial gather: the root receives (p-1) contributions; the
        dominant term is the last-round payload of p/2 ranks' data."""
        if p <= 1:
            return 0.0
        rounds = self._rounds(p)
        total_bytes = nbytes_per_rank * (p - 1)
        return rounds * self.latency + total_bytes / self.bandwidth

    def allgather_time(self, nbytes_per_rank: int, p: int) -> float:
        """Ring allgather: (p-1) steps of one rank-block each."""
        if p <= 1:
            return 0.0
        return (p - 1) * self.p2p_time(nbytes_per_rank)

    def alltoall_time(self, nbytes_per_pair: int, p: int) -> float:
        """Pairwise-exchange all-to-all: (p-1) rounds, each round every
        rank sends one block concurrently.

        This is the key step of the communication-avoiding method: the
        whole exchange costs (p-1) concurrent rounds rather than the O(n)
        serialised broadcasts of collective-per-file.
        """
        if p <= 1:
            return 0.0
        return (p - 1) * self.p2p_time(nbytes_per_pair)

    def alltoallv_time(self, max_pair_bytes: int, p: int) -> float:
        """Irregular all-to-all bounded by the largest pairwise block."""
        return self.alltoall_time(max_pair_bytes, p)
