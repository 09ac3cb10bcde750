"""Checks fixture: simmpi protocol violations.

Expected: two CCM001 (an allgather only rank 0 enters; an allreduce
reached only by rank 0 through a helper — the interprocedural case), one
CCM002 (a send whose peer arm never receives), and one CCM003 (every
rank blocks in recv before any rank sends).
"""


def lopsided_allgather(comm, rank):
    if rank == 0:
        comm.allgather(None)  # only rank 0 enters the collective
    else:
        prepare(comm)


def prepare(comm):
    return comm.size


def allreduce_through_helper(comm, rank):
    if rank == 0:
        collect(comm)  # reaches comm.allreduce one call deep
    else:
        idle()


def collect(comm):
    return comm.allreduce(0)


def idle():
    return None


def unmatched_send(comm, rank):
    if rank == 0:
        comm.send(b"work", dest=1, tag=7)  # nobody ever receives this
    else:
        spin()


def spin():
    return 0


def recv_before_send(comm, peer):
    payload = comm.recv(source=peer, tag=3)  # every rank blocks here first
    comm.send(payload, dest=peer, tag=3)
    return payload
