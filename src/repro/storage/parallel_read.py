"""Parallel read strategies for concatenated DAS data (paper §IV-B, Fig. 5).

All strategies deliver the same result — rank ``r`` ends up holding the
channel block ``r`` of the full ``channel x time`` concatenation — but
move the bytes differently:

* **collective-per-file** (Fig. 5a): the ranks walk the files one at a
  time; for each file an aggregator rank reads it whole and *broadcasts*
  it to everyone ("merge-read-broadcast").  n files → n broadcasts —
  the cost the paper's method avoids.
* **communication-avoiding** (Fig. 5b): each rank reads ⌈n/p⌉ whole
  files with one request each (all ranks in parallel), then one
  all-to-all exchange redistributes channel blocks.
* **RCA direct**: with a physically merged array, a rank's channel block
  is one contiguous region — a single request, no communication.

Virtual I/O time is charged from the cluster's storage model through a
shared discrete-event schedule (so concurrent requests contend for OSTs
exactly as in the stand-alone model evaluation), and communication time
through the simmpi cost model.

Every source access opens its own handle and closes it, which is the
uncached behaviour the paper's Fig. 7 charges for; the readers take no
pool or cache (a read that should reuse handles goes through
``open_vca(..., pool=...)``).

The readers compare request patterns, not fault handling: a source read
that fails is retried once, then its typed error propagates.  Reads that
must survive a lost source go through ``open_vca(..., on_error="mask")``.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.storage import IORequest, StorageModel
from repro.errors import ReproError, StorageError
from repro.faults.policy import retry_call
from repro.hdf5lite import File
from repro.simmpi.communicator import Communicator
from repro.storage.rca import RCA_DATASET
from repro.storage.vca import VCAHandle
from repro.utils.iostats import IOStats

#: Re-reads of a source whose whole-file read failed, before its typed
#: error propagates (a device that fails one read and recovers is absorbed).
_SOURCE_READ_RETRIES = 1


def channel_block(n_channels: int, size: int, rank: int) -> tuple[int, int]:
    """Even block partition of channels: returns ``(start, stop)``."""
    if size < 1 or not (0 <= rank < size):
        raise StorageError(f"bad partition rank={rank} size={size}")
    base, extra = divmod(n_channels, size)
    start = rank * base + min(rank, extra)
    stop = start + base + (1 if rank < extra else 0)
    return start, stop


def _read_source_whole(
    path: str, dataset: str, iostats: IOStats | None
) -> np.ndarray:
    """Read one source dataset whole.  A failed read is retried once;
    then its typed error propagates."""

    def read() -> np.ndarray:
        with File(path, "r", iostats=iostats) as f:
            return f.dataset(dataset).read()

    return retry_call(
        read, retries=_SOURCE_READ_RETRIES, retry_on=(ReproError, OSError)
    )


def _charge_scheduled_io(
    comm: Communicator,
    storage: StorageModel | None,
    local_requests: list[IORequest],
    nbytes: int,
    op: str = "read",
) -> None:
    """Charge virtual I/O time with cross-rank contention.

    Every rank contributes its request list; the storage model's
    discrete-event scheduler then serves the union, and each rank's
    clock jumps to its own completion time.  Deterministic because the
    schedule is computed identically on every rank.
    """
    if storage is None:
        return
    all_requests = comm.allgather(local_requests)
    flat = [req for rank_reqs in all_requests for req in rank_reqs]
    finish = storage.schedule(flat)
    t_start = comm.clock.now
    if comm.rank in finish:
        comm.clock.synchronize(finish[comm.rank])
    comm.tracer.record(op, nbytes, -1, t_start, comm.clock.now)


def read_vca_collective_per_file(
    comm: Communicator,
    vca_path: str,
    storage: StorageModel | None = None,
    iostats: IOStats | None = None,
) -> np.ndarray:
    """Fig. 5a: per-file aggregator read + broadcast to all ranks.

    Returns this rank's channel-block array, shaped
    ``(channels_of_this_rank, total_samples)``; virtual time is charged
    on ``comm``'s clock rather than returned.
    """
    with VCAHandle(vca_path, iostats=iostats) as vca:
        n_channels, total_samples = vca.shape
        sources = vca.sources
        paths = vca.source_paths()
    lo, hi = channel_block(n_channels, comm.size, comm.rank)
    out = np.empty((hi - lo, total_samples), dtype=np.float32)

    for index, (source, path) in enumerate(zip(sources, paths)):
        aggregator = index % comm.size
        if comm.rank == aggregator:
            block = _read_source_whole(path, source.dataset, iostats)
            # One whole-file read by the aggregator, charged at the bytes
            # actually read (the source's own dtype, not assumed float32).
            _charge_scheduled_io(
                comm,
                storage,
                [
                    IORequest(
                        rank=comm.rank,
                        file_id=index,
                        nbytes=block.nbytes,
                        start=comm.clock.now,
                        is_open=True,
                    )
                ],
                block.nbytes,
            )
        else:
            block = None
            _charge_scheduled_io(comm, storage, [], 0)
        # The "merge-read-broadcast" step: everyone gets the whole file.
        block = comm.bcast(block, root=aggregator)
        t0 = source.dst_start[1]
        out[:, t0 : t0 + source.count[1]] = block[lo:hi, :]
    return out


def read_vca_communication_avoiding(
    comm: Communicator,
    vca_path: str,
    storage: StorageModel | None = None,
    iostats: IOStats | None = None,
) -> np.ndarray:
    """Fig. 5b: each rank reads whole files, one all-to-all exchange.

    Returns this rank's channel-block array, shaped
    ``(channels_of_this_rank, total_samples)``; virtual time is charged
    on ``comm``'s clock rather than returned.
    """
    with VCAHandle(vca_path, iostats=iostats) as vca:
        n_channels, total_samples = vca.shape
        sources = vca.sources
        paths = vca.source_paths()
    lo, hi = channel_block(n_channels, comm.size, comm.rank)
    out = np.empty((hi - lo, total_samples), dtype=np.float32)

    # Round-robin file ownership; every rank reads its own files whole,
    # all ranks in parallel.
    my_files = list(range(comm.rank, len(sources), comm.size))
    blocks: dict[int, np.ndarray] = {}
    requests: list[IORequest] = []
    for index in my_files:
        blocks[index] = _read_source_whole(
            paths[index], sources[index].dataset, iostats
        )
        requests.append(
            IORequest(
                rank=comm.rank,
                file_id=index,
                nbytes=blocks[index].nbytes,
                start=comm.clock.now,
                is_open=True,
            )
        )
    _charge_scheduled_io(
        comm, storage, requests, sum(r.nbytes for r in requests)
    )

    # One all-to-all: rank -> dest gets (file index, dest's channel rows).
    sendbuf: list[list[tuple[int, np.ndarray]]] = []
    for dest in range(comm.size):
        d_lo, d_hi = channel_block(n_channels, comm.size, dest)
        sendbuf.append(
            [(index, blocks[index][d_lo:d_hi, :]) for index in my_files]
        )
    received = comm.alltoall(sendbuf)

    for per_source in received:
        for index, piece in per_source:
            t0 = sources[index].dst_start[1]
            out[:, t0 : t0 + sources[index].count[1]] = piece
    return out


def read_rca_direct(
    comm: Communicator,
    rca_path: str,
    storage: StorageModel | None = None,
    dataset: str = RCA_DATASET,
    iostats: IOStats | None = None,
) -> np.ndarray:
    """Read an RCA in parallel — one contiguous request per rank — and
    return this rank's channel-block array."""
    with File(rca_path, "r", iostats=iostats) as f:
        ds = f.dataset(dataset)
        lo, hi = channel_block(ds.shape[0], comm.size, comm.rank)
        block = ds[lo:hi, :]
    # Charge the bytes actually read: the dataset's own dtype width.
    nbytes = block.nbytes
    # A single large file is striped over only default_stripe_count OSTs;
    # rank blocks land round-robin on those stripes.
    stripes = storage.default_stripe_count if storage is not None else 1
    _charge_scheduled_io(
        comm,
        storage,
        [
            IORequest(
                rank=comm.rank,
                file_id=comm.rank % stripes,
                nbytes=nbytes,
                start=comm.clock.now,
                is_open=True,
            )
        ],
        nbytes,
    )
    return np.asarray(block, dtype=np.float32)
