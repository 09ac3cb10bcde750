"""Fault tolerance: injection harness, runtime policy and shard chaos.

Three parts:

* :mod:`repro.faults.inject` — a deterministic, seeded fault-injection
  harness (bit-flip, truncate, vanish, slow-read, raise-on-nth-read)
  used by the fault-matrix tests (``tests/test_fault_matrix.py``).
* :mod:`repro.faults.policy` — :class:`FailurePolicy` (fail-fast vs
  collect-and-continue, bounded retries) for the streaming executor's
  chunks, and the shared :func:`retry_call` bounded-retry-with-backoff
  helper threaded through ``run_chunks``, the parallel readers and the
  RT checkpoint-tail reader.
* :mod:`repro.faults.chaos` — shard-level chaos: seeded
  :class:`ChaosSchedule` kill/hang/torn-checkpoint/spool-vanish
  actions plus the generic file/directory damage helpers, interpreted
  by ``repro.rt.shard``'s supervision loop.
"""

from repro.faults.chaos import (
    SHARD_FAULT_KINDS,
    ChaosAction,
    ChaosSchedule,
    flip_text_byte,
    restore_dir,
    tear_file,
    vanish_dir,
)
from repro.faults.inject import (
    FaultInjector,
    clear_read_faults,
    install_read_fault,
    read_faults,
)
from repro.faults.policy import FailurePolicy, retry_call

__all__ = [
    "FaultInjector",
    "FailurePolicy",
    "retry_call",
    "install_read_fault",
    "clear_read_faults",
    "read_faults",
    "SHARD_FAULT_KINDS",
    "ChaosAction",
    "ChaosSchedule",
    "flip_text_byte",
    "restore_dir",
    "tear_file",
    "vanish_dir",
]
