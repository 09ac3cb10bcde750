"""simmpi — a simulated MPI runtime.

Runs P ranks as threads inside one process (SPMD), with:

* real message passing (mailboxes with ``(source, tag)`` matching) for
  blocking ``send`` / ``recv``,
* the collectives DASSA runs: ``bcast`` (collective-per-file reads),
  ``alltoall`` (communication-avoiding reads), ``allgather``, ``gather``
  (HAEE's rank blocks to rank 0) and a summing ``allreduce``,
* a **virtual clock per rank** advanced by the cluster's network cost
  model, so a run reports the simulated communication time the paper's
  experiments measure, while the data movement itself is executed for
  real and verified by tests,
* per-op tracing (used to check the discrete-event evaluation of the
  same algorithms at scales too large to thread).

Example::

    from repro.simmpi import run_spmd

    def hello(comm):
        return comm.allreduce(comm.rank)

    result = run_spmd(hello, size=4)
    assert result.results == [6, 6, 6, 6]
"""

from repro.simmpi.communicator import ANY_SOURCE, ANY_TAG, Communicator
from repro.simmpi.executor import SPMDResult, run_spmd
from repro.simmpi.tracing import TraceEvent

__all__ = [
    "Communicator",
    "run_spmd",
    "SPMDResult",
    "TraceEvent",
    "ANY_SOURCE",
    "ANY_TAG",
]
