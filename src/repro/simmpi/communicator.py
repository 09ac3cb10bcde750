"""The Communicator: mpi4py-style API over the simulated fabric.

Data movement is real (objects/arrays actually travel between rank
threads); *time* is virtual, charged per operation from the cluster's
:class:`~repro.cluster.network.NetworkModel` and reconciled across ranks
with the happens-before rule (a receive completes no earlier than its
matching send; a collective starts at the latest participant's entry).

Because ranks are threads in one address space, received objects are not
deep-copied; user code must treat received buffers as read-only or copy
them — the same discipline MPI codes apply to shared windows.
"""

from __future__ import annotations

import functools
import operator
import pickle
from typing import Any, Sequence

import numpy as np

from repro.cluster.machine import ClusterSpec
from repro.cluster.network import NetworkModel
from repro.errors import MPIError
from repro.simmpi.fabric import ANY_SOURCE, ANY_TAG, Fabric, Message
from repro.simmpi.tracing import Tracer
from repro.utils.timer import VirtualTimer

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG", "payload_nbytes"]


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of a payload.

    Arrays and bytes are exact; other objects use their pickle length
    (what mpi4py's lowercase API would actually ship).
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)) and all(
        isinstance(item, np.ndarray) for item in obj
    ):
        return sum(item.nbytes for item in obj)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # unpicklable: charge a token size
        return 64


class Communicator:
    """One rank's endpoint of the simulated communicator."""

    def __init__(
        self,
        rank: int,
        size: int,
        fabric: Fabric,
        clock: VirtualTimer | None = None,
        network: NetworkModel | None = None,
        cluster: ClusterSpec | None = None,
        ranks_per_node: int | None = None,
        tracer: Tracer | None = None,
        recv_timeout: float = 60.0,
    ):
        if not (0 <= rank < size):
            raise MPIError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size
        self._fabric = fabric
        self.clock = clock if clock is not None else VirtualTimer()
        self._network = network if network is not None else (
            cluster.network if cluster is not None else NetworkModel()
        )
        self._cluster = cluster
        self._ranks_per_node = (
            ranks_per_node if ranks_per_node is not None else size
        )
        self.tracer = tracer if tracer is not None else Tracer(rank)
        self._recv_timeout = recv_timeout

    @property
    def fabric(self) -> Fabric:
        """The shared fabric — exposed for dead-rank chaos hooks
        (:meth:`Fabric.fail_rank` / :meth:`Fabric.restore_rank`) and
        non-blocking polling loops."""
        return self._fabric

    # -- topology helpers ----------------------------------------------------------
    @property
    def node(self) -> int:
        """The node this rank runs on (block mapping)."""
        if self._cluster is not None:
            return self._cluster.node_of_rank(self.rank, self._ranks_per_node)
        return self.rank // self._ranks_per_node

    def same_node(self, other_rank: int) -> bool:
        if self._cluster is not None:
            return self._cluster.same_node(self.rank, other_rank, self._ranks_per_node)
        return self.rank // self._ranks_per_node == other_rank // self._ranks_per_node

    # -- point-to-point -------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking eager send of a Python object / numpy array."""
        if dest == self.rank:
            raise MPIError("send to self would deadlock; use a local variable")
        nbytes = payload_nbytes(obj)
        t_start = self.clock.now
        self.clock.advance(
            self._network.p2p_time(nbytes, self.same_node(dest)), phase="comm"
        )
        self._fabric.post(
            dest,
            Message(
                source=self.rank,
                tag=tag,
                payload=obj,
                nbytes=nbytes,
                send_time=self.clock.now,
            ),
        )
        self.tracer.record("send", nbytes, dest, t_start, self.clock.now)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload."""
        t_start = self.clock.now
        msg = self._fabric.match(self.rank, source, tag, timeout=self._recv_timeout)
        self.clock.synchronize(msg.send_time)
        self.tracer.record("recv", msg.nbytes, msg.source, t_start, self.clock.now)
        return msg.payload

    # -- collectives ---------------------------------------------------------------
    def _collective(self, op: str, contribution: Any, cost: float, nbytes: int, peer: int = -1) -> list[Any]:
        t_entry = self.clock.now
        contributions, t_start = self._fabric.exchange(self.rank, contribution, t_entry)
        self.clock.synchronize(t_start)
        self.clock.advance(cost, phase="comm")
        self.tracer.record(op, nbytes, peer, t_entry, self.clock.now)
        return contributions

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns it."""
        self._check_root(root)
        # Sizes must agree across ranks for the cost; share root's size.
        contribution = obj if self.rank == root else None
        contributions = self._fabric.exchange(self.rank, contribution, self.clock.now)
        payload = contributions[0][root]
        t_start = contributions[1]
        nbytes = payload_nbytes(payload)
        self.clock.synchronize(t_start)
        self.clock.advance(self._network.bcast_time(nbytes, self.size), phase="comm")
        self.tracer.record("bcast", nbytes, root, t_start, self.clock.now)
        return payload

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_root(root)
        nbytes = payload_nbytes(obj)
        contributions = self._collective(
            "gather", obj, self._network.gather_time(nbytes, self.size), nbytes, root
        )
        return list(contributions) if self.rank == root else None

    def allgather(self, obj: Any) -> list[Any]:
        nbytes = payload_nbytes(obj)
        contributions = self._collective(
            "allgather", obj, self._network.allgather_time(nbytes, self.size), nbytes
        )
        return list(contributions)

    def alltoall(self, seq: Sequence[Any]) -> list[Any]:
        """Each rank provides one item per destination; receives one per source.

        This is the data-exchange step of the communication-avoiding I/O
        method (Fig. 5b of the paper).
        """
        seq = list(seq)
        if len(seq) != self.size:
            raise MPIError(f"alltoall needs exactly {self.size} items, got {len(seq)}")
        max_pair = max(payload_nbytes(item) for item in seq)
        contributions = self._collective(
            "alltoallv",
            seq,
            self._network.alltoallv_time(max_pair, self.size),
            max_pair * self.size,
        )
        return [contributions[src][self.rank] for src in range(self.size)]

    def allreduce(self, value: Any) -> Any:
        """Elementwise sum of every rank's ``value`` (numbers or arrays),
        folded in rank order; every rank returns it."""
        nbytes = payload_nbytes(value)
        contributions = self._collective(
            "allreduce", value, self._network.allreduce_time(nbytes, self.size), nbytes
        )
        return functools.reduce(operator.add, contributions)

    # -- misc -----------------------------------------------------------------------
    def charge_io(self, seconds: float, op: str = "read", nbytes: int = 0) -> None:
        """Charge simulated I/O time against this rank's clock (used by the
        DASS readers, which compute costs from the storage model)."""
        t_start = self.clock.now
        self.clock.advance(seconds, phase="io")
        self.tracer.record(op, nbytes, -1, t_start, self.clock.now)

    def charge_compute(self, seconds: float, op: str = "compute") -> None:
        t_start = self.clock.now
        self.clock.advance(seconds, phase="compute")
        self.tracer.record(op, 0, -1, t_start, self.clock.now)

    def _check_root(self, root: int) -> None:
        if not (0 <= root < self.size):
            raise MPIError(f"root {root} out of range [0, {self.size})")

    def __repr__(self) -> str:
        return f"<Communicator rank={self.rank} size={self.size}>"
