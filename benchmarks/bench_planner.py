"""Query-planner benchmark: what the rewrites buy, measured end to end.

Runs the same analyses through the lazy planner (``optimize``/``execute``)
and through its eager reference (``naive=True``) on a synthetic VCA of
per-minute DAS files, and records in ``BENCH_planner.json``:

* **pushdown** — a decimate-by-8 STA/LTA query, naive vs optimized:
  backend requests and bytes (:class:`~repro.utils.iostats.IOStats`) and
  best-of-N wall time.  Asserts *bit-identical* output, no more backend
  requests and no more bytes than the naive plan's bounding-block reads
  (the 28-byte holes of a stride-8 float32 lattice are bridged, not
  skipped: bytes are exchanged for requests) and, at the full size, an
  optimized wall no slower than the naive one.
* **cse** — a two-detector co-run (STA/LTA + local similarity behind a
  shared taper + filter-cascade prefix) vs two independent single runs.
  Asserts the co-run reads strictly fewer backend bytes than the two
  singles combined, records a positive ``cse_hits`` count, and asserts
  the co-run wall time beats the summed single-run times (the shared
  prefix dominates the chain, so sharing it is ~2x).
* **scan** — a full scan of a packed (chunked + zlib + CRC) VCA, a plan
  that computes nothing.  Asserts it reaches the source as exactly one
  read and decodes every stored chunk exactly once (read chunk by chunk,
  the stored chunks under an executor-chunk boundary decode twice).
* the ``explain()`` dump of the co-run plan, for the record.

Usage::

    python benchmarks/bench_planner.py --smoke   # small sizes, CI-friendly
    python benchmarks/bench_planner.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np
from scipy.signal import butter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.graph import Query  # noqa: E402
from repro.core.local_similarity import LocalSimilarityConfig, LocalSimilarityOp  # noqa: E402
from repro.core.operators import FiltFiltOp, TaperOp  # noqa: E402
from repro.core.optimizer import execute, explain, optimize  # noqa: E402
from repro.core.stalta import StaLtaOp  # noqa: E402
from repro.hdf5lite.codecs import TransposeZlibCodec  # noqa: E402
from repro.storage.chunks import ChunkSource, open_stream  # noqa: E402
from repro.storage.dasfile import das_filename, write_das_file  # noqa: E402
from repro.storage.metadata import DASMetadata, timestamp_add_seconds  # noqa: E402
from repro.storage.vca import create_vca  # noqa: E402
from repro.utils.iostats import IOStats  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def build_vca(
    root: str, n_channels: int, minutes: int, spm: int, fs: float, **write_kwargs
) -> str:
    """Per-minute files (unchecksummed by default, so reads are not rounded
    up to whole CRC blocks) merged into one VCA."""
    rng = np.random.default_rng(3)
    stamp = "170620100545"
    paths = []
    os.makedirs(root, exist_ok=True)
    for _ in range(minutes):
        block = rng.normal(size=(n_channels, spm)).astype(np.float32)
        path = os.path.join(root, das_filename(stamp))
        write_das_file(
            path,
            block,
            DASMetadata(
                sampling_frequency=fs,
                spatial_resolution=2.0,
                timestamp=stamp,
                n_channels=n_channels,
            ),
            channel_groups=False,
            **write_kwargs,
        )
        paths.append(path)
        stamp = timestamp_add_seconds(stamp, 60)
    return create_vca(os.path.join(root, "bench.h5"), paths)


def run_plan(vca: str, queries, chunk: int, naive: bool):
    """Execute and return (outputs, seconds, backend traffic, results) —
    the traffic as the ``IOStats`` snapshot (``reads``, ``bytes_read``)."""
    stats = IOStats()
    with open_stream(vca, iostats=stats) as src:
        plan = optimize(queries, chunk_samples=chunk)
        t0 = time.perf_counter()
        results = execute(plan, source=src, naive=naive, iostats=stats)
        seconds = time.perf_counter() - t0
    outs = [r.output for r in results]
    return outs, seconds, stats.full_snapshot(), results


PUSHDOWN_REPEATS = 5


def bench_pushdown(vca: str, chunk: int, gate_wall: bool) -> dict:
    q = Query.scan(None).decimate(8).then(StaLtaOp(4, 16))
    opt_s = ref_s = float("inf")
    for _ in range(PUSHDOWN_REPEATS):  # alternate, keep each side's best
        (opt_out,), s, opt_io, _ = run_plan(vca, q, chunk, naive=False)
        opt_s = min(opt_s, s)
        (ref_out,), s, ref_io, _ = run_plan(vca, q, chunk, naive=True)
        ref_s = min(ref_s, s)
    np.testing.assert_array_equal(opt_out, ref_out)
    opt_reads, opt_bytes = opt_io["reads"], opt_io["bytes_read"]
    ref_reads, ref_bytes = ref_io["reads"], ref_io["bytes_read"]
    assert opt_reads <= ref_reads, (
        f"pushdown must not add backend requests: {opt_reads} > {ref_reads}"
    )
    assert opt_bytes <= ref_bytes, (
        f"pushdown must stay inside the bounding block: {opt_bytes} > {ref_bytes}"
    )
    if gate_wall:
        assert opt_s <= ref_s, (
            f"pushdown must not be slower than the naive plan: "
            f"{opt_s:.4f}s > {ref_s:.4f}s (best of {PUSHDOWN_REPEATS})"
        )
    return {
        "query": "decimate(8) | sta_lta(4,16)",
        "chunk_samples": chunk,
        "naive_reads": ref_reads,
        "optimized_reads": opt_reads,
        "naive_bytes_read": ref_bytes,
        "optimized_bytes_read": opt_bytes,
        "bytes_ratio": round(opt_bytes / ref_bytes, 4),
        "repeats": PUSHDOWN_REPEATS,
        "naive_seconds": round(ref_s, 4),
        "optimized_seconds": round(opt_s, 4),
        "wall_gated": gate_wall,
    }


def bench_cse(vca: str, chunk: int, fs: float) -> tuple[dict, str]:
    """The shared prefix (taper + three cascaded filtfilt stages)
    carries most of the chain's work, so computing it once per chunk for
    both detectors — instead of once per detector — is the dominant
    saving the wall-time assertion checks."""
    b, a = butter(4, [0.05 * fs, 0.2 * fs], btype="band", fs=fs)
    b2, a2 = butter(4, 0.3 * fs, btype="low", fs=fs)
    b3, a3 = butter(4, 0.02 * fs, btype="high", fs=fs)
    simi = LocalSimilarityConfig(half_window=10, half_lag=2, stride=300)

    def queries():
        base = (
            Query.scan(None)
            .then(TaperOp(0.05))
            .then(FiltFiltOp(b, a))
            .then(FiltFiltOp(b2, a2))
            .then(FiltFiltOp(b3, a3))
        )
        return [
            base.then(StaLtaOp(4, 16)).with_label("trigger"),
            base.then(LocalSimilarityOp(simi)).with_label("similarity"),
        ]

    co_outs, co_s, co_io, co_results = run_plan(
        vca, queries(), chunk, naive=False
    )
    co_bytes = co_io["bytes_read"]
    single_s, single_bytes, single_outs = 0.0, 0, []
    for q in queries():
        (out,), s, io, _ = run_plan(vca, q, chunk, naive=False)
        single_s += s
        single_bytes += io["bytes_read"]
        single_outs.append(out)
    cse_hits = co_results[0].profile.cse_hits
    assert cse_hits > 0, "co-run must record shared-prefix hits"
    assert co_bytes < single_bytes, (
        f"co-run must read fewer backend bytes than two singles: "
        f"{co_bytes} >= {single_bytes}"
    )
    assert co_s < single_s, (
        f"shared-prefix co-run must beat two single runs: "
        f"{co_s:.3f}s >= {single_s:.3f}s"
    )
    plan_text = explain(optimize(queries(), chunk_samples=chunk))
    return {
        "branches": ["trigger", "similarity"],
        "chunk_samples": chunk,
        "corun_seconds": round(co_s, 4),
        "two_singles_seconds": round(single_s, 4),
        "speedup": round(single_s / co_s, 3),
        "corun_bytes_read": co_bytes,
        "two_singles_bytes_read": single_bytes,
        "cse_hits": cse_hits,
    }, plan_text


class CountedSource(ChunkSource):
    """Forwards the executor's two read calls to ``inner``, counting them."""

    def __init__(self, inner: ChunkSource):
        self._inner = inner
        self.n_channels, self.n_samples, self.fs = (
            inner.n_channels, inner.n_samples, inner.fs,
        )
        self.reads = 0

    @property
    def bytes_streamed(self) -> int:
        return self._inner.bytes_streamed

    def read_rows(self, r0, r1, t0, t1):
        self.reads += 1
        return self._inner.read_rows(r0, r1, t0, t1)

    def read_strided(self, r0, r1, t0, t1, tstep=1):
        self.reads += 1
        return self._inner.read_strided(r0, r1, t0, t1, tstep)


def bench_scan(root: str, n_channels: int, minutes: int, spm: int, fs: float,
               chunk: int) -> dict:
    """Full scan of a packed VCA whose stored chunks straddle the
    executor's chunk boundaries."""
    stored_shape = (min(n_channels, 16), 4096)
    vca = build_vca(
        root, n_channels, minutes, spm, fs,
        chunks=stored_shape, codec="transpose-zlib", checksum=True,
    )
    stored_chunks = minutes * -(-n_channels // stored_shape[0]) * -(-spm // stored_shape[1])
    decodes = 0
    real_decode = TransposeZlibCodec.decode

    def counting_decode(self, *args):
        nonlocal decodes
        decodes += 1
        return real_decode(self, *args)

    TransposeZlibCodec.decode = counting_decode
    try:
        with open_stream(vca) as src:
            counted = CountedSource(src)
            plan = optimize(Query.scan(None), chunk_samples=chunk)
            t0 = time.perf_counter()
            (result,) = execute(plan, source=counted)
            seconds = time.perf_counter() - t0
    finally:
        TransposeZlibCodec.decode = real_decode
    assert result.output.shape == (n_channels, minutes * spm)
    assert counted.reads == 1, (
        f"a plan that computes nothing must be one source read, not {counted.reads}"
    )
    assert decodes == stored_chunks, (
        f"every stored chunk must decode exactly once: {decodes} decodes "
        f"for {stored_chunks} stored chunks"
    )
    return {
        "query": "scan (packed VCA, nothing to compute)",
        "chunk_samples": chunk,
        "stored_chunk_shape": list(stored_shape),
        "source_reads": counted.reads,
        "decodes": decodes,
        "stored_chunks": stored_chunks,
        "n_chunks": result.profile.n_chunks,
        "seconds": round(seconds, 4),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small CI run")
    args = parser.parse_args()

    if args.smoke:
        n_channels, minutes, spm, chunk = 32, 4, 12000, 9600
    else:
        n_channels, minutes, spm, chunk = 128, 10, 30000, 12000
    fs = float(spm) / 60.0

    with tempfile.TemporaryDirectory() as root:
        vca = build_vca(root, n_channels, minutes, spm, fs)
        pushdown = bench_pushdown(vca, chunk, gate_wall=not args.smoke)
        cse, plan_text = bench_cse(vca, chunk, fs)
        scan = bench_scan(
            os.path.join(root, "packed"), n_channels, minutes, spm, fs, chunk
        )

    doc = {
        "smoke": bool(args.smoke),
        "workload": {
            "n_channels": n_channels,
            "minutes": minutes,
            "samples_per_minute": spm,
            "fs": fs,
        },
        "pushdown": pushdown,
        "cse": cse,
        "scan": scan,
        "explain": plan_text.splitlines(),
    }
    out_path = os.path.join(REPO_ROOT, "BENCH_planner.json")
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(json.dumps(doc, indent=2))
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
