"""Per-layer probes: timed calls into one public function at a time.

A probe is the median of ``REPEATS`` calls on one of the workload's own
files or blocks, taken during the traced run only.  Probes answer "how
fast is this layer by itself" so that a moved end-to-end number can be
pinned on — or cleared of — a layer; they are never gated.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.arrayudf import HybridEngine, apply_mt, map_blocks_mt
from repro.cluster import cori_haswell, laptop
from repro.daslib import abscorr, butter, detrend, filtfilt, resample, rfft
from repro.hdf5lite import BlockCache, CacheConfig, File, Hyperslab, resolve_codec
from repro.hdf5lite.checksum import verify_dataset
from repro.simmpi import run_spmd
from repro.storage.dasfile import DATASET_NAME
from repro.storage.model import (
    model_collective_per_file,
    model_communication_avoiding,
)
from repro.storage.parallel_read import (
    read_vca_collective_per_file,
    read_vca_communication_avoiding,
)

import calib
from common import median

REPEATS = 5
MB = 1e6


def timed(fn, repeats: int = REPEATS) -> float:
    """Median speed-normalised seconds of ``repeats`` calls (results are
    consumed by the call itself — every probed function returns a
    materialised value)."""
    samples = []
    before = calib.probe()
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        raw = time.perf_counter() - started
        after = calib.probe()
        samples.append(raw * calib.factor(before, after))
        before = after
    return median(samples)


# -- hdf5lite -------------------------------------------------------------------

def hdf5lite_read(raw_path: str, packed_path: str) -> dict:
    """Read-side probes on one raw and one packed minute file."""
    out: dict[str, float] = {}
    with File(raw_path, "r") as f:
        ds = f.dataset(DATASET_NAME)
        nbytes = ds.nbytes
        channels, samples = ds.shape
        out["hdf5lite.contig_read_mbps"] = nbytes / timed(lambda: ds[:, :]) / MB
        lattice = Hyperslab((0, 0), (channels, -(-samples // 8)), (1, 8))
        delivered = lattice.size * ds.itemsize
        out["hdf5lite.strided_read_mbps"] = (
            delivered / timed(lambda: ds.read_hyperslab(lattice)) / MB
        )

    # second read through a warm cache that holds the whole dataset
    with File(raw_path, "r", cache=CacheConfig(byte_budget=4 * nbytes)) as f:
        ds = f.dataset(DATASET_NAME)
        ds[:, :]
        out["hdf5lite.cached_read_mbps"] = nbytes / timed(lambda: ds[:, :]) / MB
    # the same region twice through a budget half its size: every page
    # is evicted before it is needed again
    with File(raw_path, "r", cache=CacheConfig(byte_budget=nbytes // 2)) as f:
        ds = f.dataset(DATASET_NAME)

        def twice() -> None:
            ds[:, :]
            ds[:, :]

        out["hdf5lite.thrash_read_mbps"] = 2 * nbytes / timed(twice) / MB

    with File(packed_path, "r") as f:
        ds = f.dataset(DATASET_NAME)
        out["hdf5lite.chunked_read_mbps"] = ds.nbytes / timed(lambda: ds[:, :]) / MB
        stored = os.path.getsize(packed_path)
        out["hdf5lite.crc_verify_mbps"] = (
            stored / timed(lambda: verify_dataset(ds)) / MB
        )
        chunk_shape = tuple(min(c, s) for c, s in zip(ds.chunks, ds.shape))
        chunk = np.ascontiguousarray(ds[: chunk_shape[0], : chunk_shape[1]])
        codec = ds.codec
    payload = codec.encode(chunk)
    out["hdf5lite.decode_mbps"] = (
        chunk.nbytes
        / timed(lambda: codec.decode(payload, chunk.shape, chunk.dtype))
        / MB
    )

    cache = BlockCache(CacheConfig(byte_budget=8 << 20))
    key = ("probe", "page", 0)
    cache.put(key, bytes(1 << 20))
    lookups = 2000

    def gets() -> None:
        for _ in range(lookups):
            cache.get(key)

    out["hdf5lite.cache_get_us"] = timed(gets) / lookups * 1e6
    return out


def hdf5lite_write(block: np.ndarray, scratch_dir: str, chunks: tuple[int, int]) -> dict:
    """Write-side probes on one in-memory minute block."""
    codec = resolve_codec("transpose-zlib")
    chunk = np.ascontiguousarray(block[: chunks[0], : chunks[1]])
    out = {
        "hdf5lite.encode_mbps": chunk.nbytes / timed(lambda: codec.encode(chunk)) / MB
    }
    path = os.path.join(scratch_dir, "probe_write.h5")

    def write(**kwargs) -> None:
        with File(path, "w") as f:
            f.create_dataset("probe", data=block, **kwargs)

    out["hdf5lite.write_packed_mbps"] = block.nbytes / timed(
        lambda: write(chunks=chunks, codec="transpose-zlib", checksum=True)
    ) / MB
    out["hdf5lite.write_contig_mbps"] = block.nbytes / timed(write) / MB
    os.remove(path)
    return out


# -- daslib / arrayudf ----------------------------------------------------------

def daslib(block: np.ndarray, fs: float) -> dict:
    """Single-thread operator rates on one float64 chunk."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    b, a = butter(4, (2.0, 30.0), "bandpass", fs=fs)
    msamples = block.size / 1e6
    calls = {
        "filtfilt": lambda: filtfilt(b, a, block, axis=-1),
        "resample": lambda: resample(block, 1, 5, axis=-1),
        "detrend": lambda: detrend(block, axis=-1),
        "abscorr": lambda: abscorr(block[:-1], block[1:], axis=-1),
        "rfft": lambda: rfft(block, axis=-1),
    }
    return {
        f"daslib.{name}_msps": msamples / timed(call) for name, call in calls.items()
    }


def _three_point_mean(s):
    return (s(0, -1) + s(0, 0) + s(0, 1)) / 3


def arrayudf(block: np.ndarray, fs: float) -> dict:
    block = np.ascontiguousarray(block, dtype=np.float64)
    b, a = butter(4, (2.0, 30.0), "bandpass", fs=fs)

    def worker(_tid: int, lo: int, hi: int) -> np.ndarray:
        return filtfilt(b, a, block[lo:hi], axis=-1)

    t1 = timed(lambda: map_blocks_mt(block.shape[0], 1, worker))
    t2 = timed(lambda: map_blocks_mt(block.shape[0], 2, worker))
    # per-cell UDFs run in the interpreter: keep the stencil block small
    cells = np.ascontiguousarray(block[:16, :256])
    engine = HybridEngine(laptop(nodes=2, cores=2), 2, threads_per_rank=2)
    reports = []

    def haee() -> None:
        reports.append(engine.run(cells, _three_point_mean, boundary="clamp"))

    haee_wall = timed(haee)
    return {
        "arrayudf.thread_speedup": t1 / t2,
        "arrayudf.apply_mt_s": timed(
            lambda: apply_mt(cells, _three_point_mean, threads=2, boundary="clamp")
        ),
        "arrayudf.haee_wall_s": haee_wall,
        "arrayudf.haee_vs": reports[-1].total_time,
    }


# -- simmpi / parallel readers / cluster model ------------------------------------

def _pingpong(comm, rounds: int) -> None:
    for i in range(rounds):
        if comm.rank == 0:
            comm.send(i, dest=1, tag=1)
            comm.recv(source=1, tag=2)
        else:
            comm.recv(source=0, tag=1)
            comm.send(i, dest=0, tag=2)


def _allreduce(comm, rounds: int) -> None:
    for i in range(rounds):
        comm.allreduce(i)


def simmpi() -> dict:
    """P = 2 message costs (the spawn is ~1 % of either loop)."""
    rounds = 200
    return {
        "simmpi.pingpong_us": timed(
            lambda: run_spmd(_pingpong, 2, args=(rounds,))
        ) / rounds * 1e6,
        "simmpi.allreduce_us": timed(
            lambda: run_spmd(_allreduce, 2, args=(rounds,))
        ) / rounds * 1e6,
        "simmpi.spawn_ms": timed(lambda: run_spmd(lambda comm: None, 2)) * 1e3,
    }


def parallel_read(vca_path: str, n_files: int, file_bytes: int) -> dict:
    """Both Fig. 5 readers executed at P = 2 under the Cori model, plus the
    closed-form model for the same geometry.  Virtual seconds and message
    counts repeat exactly; the wall is GIL-bound and only indicative."""
    ranks = 2
    cluster = cori_haswell(ranks)

    def spmd(reader):
        return run_spmd(
            lambda comm: reader(comm, vca_path, cluster.storage),
            ranks, cluster=cluster, ranks_per_node=1,
        )

    coll = spmd(read_vca_collective_per_file)
    runs = []
    avoid_wall = timed(lambda: runs.append(spmd(read_vca_communication_avoiding)))
    avoid = runs[-1]
    messages = [
        entry for schedule in avoid.schedules() for entry in schedule
        if entry[0] != "read"
    ]
    model_coll = model_collective_per_file(cluster, ranks, n_files, file_bytes).total
    model_avoid = model_communication_avoiding(
        cluster, ranks, n_files, file_bytes
    ).total
    return {
        "storage.par_read_coll_vs": coll.makespan,
        "storage.par_read_avoid_vs": avoid.makespan,
        "storage.par_read_avoid_wall_s": avoid_wall,
        "simmpi.msgs": len(messages),
        "simmpi.msg_bytes": sum(entry[1] for entry in messages),
        "simmpi.comm_vs": avoid.phase_totals().get("comm", 0.0),
        "cluster.model_coll_s": model_coll,
        "cluster.model_avoid_s": model_avoid,
        "cluster.model_error_avoid": abs(model_avoid - avoid.makespan) / avoid.makespan,
    }
