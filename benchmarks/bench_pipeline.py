"""Streaming-executor benchmark: materialized vs chunked execution.

Runs the *same* Algorithm 3 operator graph
(:func:`repro.core.interferometry.interferometry_operators`) under the
two Fig. 9 execution policies:

* **materialized** — :func:`repro.core.pipeline.run_materialized`:
  stage at a time over the whole array, every intermediate resident
  (the MATLAB structure, vectorised kernels),
* **streamed** — :class:`repro.core.pipeline.StreamPipeline` with
  overlap-aware chunks (``T // 8`` samples per chunk): only one padded
  block plus the decimated accumulator resident at a time.

Asserts the two outputs agree to 1e-9 and that the streamed peak
resident bytes (the profile's footprint proxy: every chunk in flight,
the block read ahead, outputs and sinks) are strictly below the
materialized peak, then records per-stage seconds, bytes streamed, and
the peaks in ``BENCH_pipeline.json``.  The streamed run is also watched
from outside: ``workers_started`` counts every thread started while it
ran (one pool per run: at most ``threads``) and ``reads_off_caller`` the
source reads issued from any thread but the caller's (none).

Usage::

    python benchmarks/bench_pipeline.py --smoke   # small sizes, CI-friendly
    python benchmarks/bench_pipeline.py           # default sizes
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.interferometry import (  # noqa: E402
    InterferometryConfig,
    interferometry_operators,
    master_spectrum,
)
from repro.core.pipeline import StreamPipeline, run_materialized  # noqa: E402
from repro.storage.chunks import ArraySource  # noqa: E402
from repro.utils.timer import Timer  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def build_noise(channels: int, samples: int) -> np.ndarray:
    rng = np.random.default_rng(13)
    data = rng.standard_normal((channels, samples))
    data += np.linspace(0.0, 2.0, samples)[None, :]  # make detrend earn its keep
    return data


class ReadSpy(ArraySource):
    """Counts the reads issued from a thread other than the one that
    built the source (the caller of ``run``)."""

    def __init__(self, data: np.ndarray, fs: float):
        super().__init__(data, fs=fs)
        self._caller = threading.get_ident()
        self.off_caller = 0

    def read_strided(self, r0, r1, t0, t1, tstep=1):
        if threading.get_ident() != self._caller:
            self.off_caller += 1
        return super().read_strided(r0, r1, t0, t1, tstep)


@contextmanager
def thread_starts():
    """Names of the threads started inside the block, whoever starts them."""
    started: list[str] = []
    real = threading.Thread.start

    def start(thread: threading.Thread) -> None:
        started.append(thread.name)
        real(thread)

    threading.Thread.start = start
    try:
        yield started
    finally:
        threading.Thread.start = real


def run_comparison(
    channels: int, samples: int, threads: int
) -> dict:
    config = InterferometryConfig(fs=200.0, band=(2.0, 20.0), resample_q=4)
    data = build_noise(channels, samples)
    mc = config.master_channel
    mfft = master_spectrum(data[mc : mc + 1], config)
    operators = interferometry_operators(config, master_fft=mfft)

    mat_timer = Timer()
    t0 = time.perf_counter()
    materialized = run_materialized(operators, data, fs=config.fs, timer=mat_timer)
    mat_wall = time.perf_counter() - t0

    chunk = max(1, samples // 8)
    str_timer = Timer()
    source = ReadSpy(data, config.fs)
    with thread_starts() as started:
        t0 = time.perf_counter()
        streamed = StreamPipeline(operators).run(
            source, chunk_samples=chunk, threads=threads, timer=str_timer
        )
        str_wall = time.perf_counter() - t0

    drift = float(np.max(np.abs(streamed.output - materialized.output)))
    assert drift < 1e-9, f"streamed output drifted from materialized by {drift}"
    assert (
        streamed.profile.peak_resident_bytes
        < materialized.profile.peak_resident_bytes
    ), (
        f"streamed peak {streamed.profile.peak_resident_bytes} not below "
        f"materialized peak {materialized.profile.peak_resident_bytes}"
    )

    assert len(started) <= threads, (
        f"{len(started)} threads started for threads={threads}: {started}"
    )
    assert source.off_caller == 0, (
        f"{source.off_caller} source reads issued off the calling thread"
    )

    return {
        "channels": channels,
        "samples": samples,
        "threads": threads,
        "chunk_samples": chunk,
        "workers_started": len(started),
        "reads_off_caller": source.off_caller,
        "max_abs_output_diff": drift,
        "materialized": {
            "wall_seconds": mat_wall,
            **materialized.profile.as_dict(),
        },
        "streamed": {
            "wall_seconds": str_wall,
            **streamed.profile.as_dict(),
        },
        "peak_bytes_ratio": (
            streamed.profile.peak_resident_bytes
            / materialized.profile.peak_resident_bytes
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small CI sizes")
    parser.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, "BENCH_pipeline.json"),
        help="JSON output path",
    )
    args = parser.parse_args()

    if args.smoke:
        cases = [(8, 20_000, 2)]
    else:
        cases = [(32, 120_000, 4), (64, 240_000, 4)]

    results = []
    for channels, samples, threads in cases:
        print(f"== {channels} channels x {samples} samples, {threads} threads ==")
        entry = run_comparison(channels, samples, threads)
        mat, srt = entry["materialized"], entry["streamed"]
        print(
            f"  materialized: {mat['wall_seconds']:.3f} s, "
            f"peak {mat['peak_resident_bytes'] / 1e6:.1f} MB"
        )
        print(
            f"  streamed    : {srt['wall_seconds']:.3f} s, "
            f"peak {srt['peak_resident_bytes'] / 1e6:.1f} MB "
            f"({entry['peak_bytes_ratio']:.2f}x of materialized), "
            f"{srt['n_chunks']} chunks, {entry['workers_started']} workers started, "
            f"{entry['reads_off_caller']} reads off the caller"
        )
        print(f"  max |diff|  : {entry['max_abs_output_diff']:.2e}")
        results.append(entry)

    payload = {"benchmark": "streaming_pipeline", "cases": results}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
