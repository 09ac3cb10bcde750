"""The message fabric shared by all ranks of an SPMD run.

Provides point-to-point mailboxes with ``(source, tag)`` matching, a
reusable rendezvous for collectives, and a global abort switch so a rank
failure wakes every blocked rank instead of deadlocking the run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import MPIError

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Message:
    """An in-flight point-to-point message."""

    source: int
    tag: int
    payload: Any
    nbytes: int
    send_time: float  # sender's virtual clock when the send completed
    seq: int = 0  # fabric-wide sequence for deterministic ordering


class Fabric:
    """Mailboxes + collective rendezvous for one communicator."""

    def __init__(self, size: int):
        if size < 1:
            raise MPIError("communicator size must be >= 1")
        self.size = size
        self._lock = threading.Condition()
        self._mailboxes: list[list[Message]] = [[] for _ in range(size)]
        self._seq = 0
        self._aborted: BaseException | None = None
        self._failed: set[int] = set()  # guarded-by: _lock
        # Collective rendezvous state (double-barrier protocol).
        self._coll_barrier = threading.Barrier(size)
        self._coll_slots: list[Any] = [None] * size
        self._coll_times: list[float] = [0.0] * size

    # -- abort handling -------------------------------------------------------
    def abort(self, cause: BaseException) -> None:
        """Wake every blocked rank; subsequent fabric calls raise."""
        with self._lock:
            if self._aborted is None:
                self._aborted = cause
            self._lock.notify_all()
        self._coll_barrier.abort()

    def _check_abort(self) -> None:
        if self._aborted is not None:
            raise MPIError(f"SPMD run aborted: {self._aborted!r}")

    # -- dead-rank simulation -------------------------------------------------
    def fail_rank(self, rank: int) -> None:
        """Mark ``rank`` dead: its mailbox is purged (a crashed process
        loses its volatile state), subsequent posts *to* it are silently
        dropped, and receives *by* it raise.  Unlike :meth:`abort`, the
        rest of the fabric keeps running — this is how chaos tests
        simulate a single shard death without killing the whole run."""
        if not (0 <= rank < self.size):
            raise MPIError(f"rank {rank} out of range [0, {self.size})")
        with self._lock:
            self._failed.add(rank)
            self._mailboxes[rank].clear()
            self._lock.notify_all()

    def restore_rank(self, rank: int) -> None:
        """Bring a failed rank back (empty mailbox — a restart, not a
        resume of the dead process's state)."""
        with self._lock:
            self._failed.discard(rank)
            self._mailboxes[rank].clear()
            self._lock.notify_all()

    def is_failed(self, rank: int) -> bool:
        with self._lock:
            return rank in self._failed

    # -- point to point --------------------------------------------------------
    def post(self, dest: int, message: Message) -> None:
        if not (0 <= dest < self.size):
            raise MPIError(f"destination rank {dest} out of range [0, {self.size})")
        with self._lock:
            self._check_abort()
            if dest in self._failed:
                return  # the dead rank will never read it
            message.seq = self._seq
            self._seq += 1
            self._mailboxes[dest].append(message)
            self._lock.notify_all()

    def _take(self, dest: int, source: int, tag: int) -> Message | None:
        """Pop the matching message with the lowest fabric sequence
        number, or return None (caller holds the lock)."""
        self._check_abort()
        if dest in self._failed:
            raise MPIError(f"rank {dest} is failed (dead-rank simulation)")
        box = self._mailboxes[dest]
        best_idx = -1
        for idx, msg in enumerate(box):
            if (source == ANY_SOURCE or msg.source == source) and (
                tag == ANY_TAG or msg.tag == tag
            ):
                if best_idx < 0 or msg.seq < box[best_idx].seq:
                    best_idx = idx
        return box.pop(best_idx) if best_idx >= 0 else None

    def match(self, dest: int, source: int, tag: int, timeout: float = 60.0) -> Message:
        """Block until a message matching ``(source, tag)`` arrives.

        ``ANY_SOURCE`` / ``ANY_TAG`` wildcard; among matches, the lowest
        fabric sequence number wins (deterministic, FIFO per pair).
        ``timeout`` bounds the whole wait, however much other traffic
        wakes the fabric meanwhile; ``None`` or a negative value waits
        without limit.
        """
        deadline = (
            None if timeout is None or timeout < 0
            else time.monotonic() + timeout
        )
        with self._lock:
            while (msg := self._take(dest, source, tag)) is None:
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                if not self._lock.wait(timeout=remaining):
                    raise MPIError(
                        f"recv timeout on rank {dest} waiting for "
                        f"(source={source}, tag={tag})"
                    )
            return msg

    def match_nowait(self, dest: int, source: int, tag: int) -> Message | None:
        """Non-blocking match: pop a matching message or return None."""
        with self._lock:
            return self._take(dest, source, tag)

    # -- collective rendezvous ------------------------------------------------
    def exchange(
        self, rank: int, contribution: Any, entry_time: float,
        op: str, timeout: float | None,
    ) -> tuple[list[Any], float]:
        """All-ranks rendezvous: deposit a contribution, get everyone's.

        Returns ``(contributions_by_rank, t_start)`` where ``t_start`` is
        the latest entry time across ranks — the moment the collective can
        begin, used for virtual-clock reconciliation.

        Protocol: deposit → barrier → read → barrier.  The second barrier
        prevents a fast rank from starting the *next* collective and
        overwriting slots another rank has not read yet.  ``timeout``
        bounds each barrier wait as it bounds :meth:`match`: a rank that
        never arrives (it skipped ``op`` or returned) breaks the barrier
        and every waiting rank raises :class:`MPIError` naming ``op``.
        ``None`` or a negative value waits without limit.
        """
        if timeout is not None and timeout < 0:
            timeout = None
        self._check_abort()
        self._coll_slots[rank] = contribution
        self._coll_times[rank] = entry_time
        try:
            self._coll_barrier.wait(timeout)
            contributions = list(self._coll_slots)
            t_start = max(self._coll_times)
            self._coll_barrier.wait(timeout)
        except threading.BrokenBarrierError:
            self._check_abort()
            raise MPIError(
                f"{op} on rank {rank}: not every rank arrived within "
                f"{timeout} s"
            ) from None
        return contributions, t_start
