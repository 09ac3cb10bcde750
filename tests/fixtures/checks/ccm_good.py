"""Checks fixture: simmpi protocol — the blessed shapes.

Twins of ``ccm_bad.py``: collectives entered by both arms (the
aggregator pattern), sends matched by the peer arm's recv (directly
and through helpers), the parity-ordered halo exchange, an
error-guard arm that only raises, and a numpy reduction only rank 0
runs (``np.add.reduce`` is not a collective).  Expected: no CCM findings.
"""

import numpy as np


def aggregator_pattern(comm, rank):
    if rank == 0:
        totals = comm.gather(local_sum(), root=0)
        return sum(totals)
    else:
        comm.gather(local_sum(), root=0)
        return None


def local_sum():
    return 1


def matched_pair(comm, rank):
    if rank == 0:
        comm.send(b"work", dest=1, tag=7)
        return None
    else:
        return comm.recv(source=0, tag=7)


def matched_through_helpers(comm, rank):
    if rank == 0:
        push(comm)
    else:
        pull(comm)


def push(comm):
    comm.send(b"x", dest=1, tag=2)


def pull(comm):
    return comm.recv(source=0, tag=2)


def parity_exchange(comm, rank, peer):
    if rank % 2 == 0:
        comm.send(b"edge", dest=peer, tag=5)
        return comm.recv(source=peer, tag=5)
    else:
        got = comm.recv(source=peer, tag=5)
        comm.send(b"edge", dest=peer, tag=5)
        return got


def guarded_self_send(comm, rank, dest):
    if dest == rank:
        raise ValueError("cannot send to self")  # error guard, not a role split
    comm.send(b"payload", dest=dest, tag=1)


def root_only_numpy_reduce(comm, x):
    total = None
    if comm.rank == 0:
        total = np.add.reduce(x)  # a ufunc method, not comm.reduce
    comm.allgather(None)
    return total
