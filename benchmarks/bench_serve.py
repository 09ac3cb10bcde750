"""Serving-layer benchmark: pyramids, exactness, and tenant isolation.

Drives a :class:`~repro.serve.DataServer` over a synthetic VCA archive
with simulated concurrent viewers and records in ``BENCH_serve.json``:

* **pyramid_build** — the wall time of ``build_pyramid`` and the backend
  bytes and requests it issued.  Asserts the build moves no more bytes
  than one full read of the archive, whatever the number of levels (a
  per-level scan would read it once per level).
* **preview_reduction** — the same whole-record preview served from a
  stored pyramid level vs computed from raw by the streaming planner.
  Asserts the pyramid path reads *strictly fewer* backend bytes and
  (at an aligned pixel pitch) returns the *identical* pixels.
* **window_exactness** — ``read_window`` answers vs a direct planner
  query over the same :class:`~repro.storage.chunks.WindowSource` and vs
  slicing the raw record.  Asserts bit-exact on both.
* **viewers** — a closed-loop fleet of tenant threads mixing zoomed-out
  previews (40%), panning previews (40%), and follow-live window+event
  reads (20%); per-tenant p50/p95 latency and admission counters from
  the controller's reservoirs.
* **isolation** — a polite tenant's p95 latency measured solo, then
  again while a greedy tenant saturates its own quota.  Asserts the
  contended p95 stays within ``ServeConfig.isolation_p95_bound`` of the
  solo p95 (floored at 5 ms so an idle-machine solo run cannot make the
  bound vacuously tight).

Usage::

    python benchmarks/bench_serve.py --smoke   # small sizes, CI-friendly
    python benchmarks/bench_serve.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.detection import DetectedEvent  # noqa: E402
from repro.core.graph import Query  # noqa: E402
from repro.core.optimizer import execute, optimize  # noqa: E402
from repro.errors import AdmissionQueueFullError, QuotaExceededError  # noqa: E402
from repro.hdf5lite import File  # noqa: E402
from repro.rt.events import EventSink, SeamEvent  # noqa: E402
from repro.serve import (  # noqa: E402
    DataServer,
    PyramidConfig,
    ServeConfig,
    TenantQuota,
    build_pyramid,
)
from repro.storage.chunks import WindowSource, open_stream  # noqa: E402
from repro.storage.dasfile import das_filename, write_das_file  # noqa: E402
from repro.storage.metadata import DASMetadata, timestamp_add_seconds  # noqa: E402
from repro.utils.iostats import IOStats  # noqa: E402
from repro.storage.vca import create_vca  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def build_archive(
    root: str, n_channels: int, minutes: int, spm: int, fs: float
) -> tuple[str, str, dict]:
    """Per-minute files merged into a VCA, pyramid built in place (its
    cost returned), plus a synthetic event catalog covering the record."""
    rng = np.random.default_rng(11)
    stamp = "170620100545"
    paths = []
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
        )
        paths.append(path)
        stamp = timestamp_add_seconds(stamp, 60)
    vca = create_vca(os.path.join(root, "bench.h5"), paths)
    scan = IOStats()
    with open_stream(vca, iostats=scan) as src:
        src.read(0, src.n_samples)
    build = IOStats()
    started = time.perf_counter()
    levels = build_pyramid(
        vca, PyramidConfig(factor=4, min_samples=64), iostats=build
    )
    pyramid_build_s = time.perf_counter() - started
    assert build.bytes_read <= scan.bytes_read, (
        f"pyramid build must read the archive once: {build.bytes_read} "
        f"bytes for {len(levels)} levels > one scan ({scan.bytes_read})"
    )
    pyramid_build = {
        "levels": len(levels),
        "pyramid_build_s": round(pyramid_build_s, 4),
        "backend_bytes": build.bytes_read,
        "backend_reads": build.reads,
        "archive_scan_bytes": scan.bytes_read,
    }

    duration_s = minutes * 60.0
    events_path = os.path.join(root, "events.jsonl")
    EventSink(events_path).emit([
        SeamEvent(
            event=DetectedEvent(
                label=k + 1,
                kind="unclassified",
                channel_lo=0,
                channel_hi=min(3, n_channels - 1),
                t_start=t,
                t_end=t + 2.0,
                peak_similarity=0.9,
                n_cells=24,
                speed_channels_per_s=0.0,
            ),
            j_start=100 * k,
            j_end=100 * k + 5,
        )
        for k, t in enumerate(np.linspace(5.0, duration_s - 10.0, 6))
    ])
    return vca, events_path, pyramid_build


# -- pyramid vs raw ----------------------------------------------------------

def bench_preview_reduction(vca: str) -> dict:
    """Whole-record preview at an aligned pixel pitch, both paths, each
    on a fresh server so the byte counts are cold-cache and comparable."""

    def measure(use_pyramid: bool):
        stats = IOStats()
        with DataServer(vca, iostats=stats) as server:
            n = server.n_samples
            # the coarsest stored factor that divides the record keeps the
            # raw path's span // width on the same lattice (identical pixels)
            factor = max(
                lvl.factor for lvl in server.levels if n % lvl.factor == 0
            )
            width = n // factor
            before = stats.full_snapshot()["bytes_read"]
            preview = server.session("probe").preview(
                0, n, width, use_pyramid=use_pyramid
            )
            nbytes = stats.full_snapshot()["bytes_read"] - before
        return preview, nbytes, factor

    via_pyramid, pyramid_bytes, factor = measure(use_pyramid=True)
    via_raw, raw_bytes, _ = measure(use_pyramid=False)
    assert via_pyramid.level is not None and via_pyramid.factor == factor
    assert via_raw.level is None and via_raw.factor == factor
    np.testing.assert_array_equal(via_pyramid.data, via_raw.data)
    assert pyramid_bytes < raw_bytes, (
        f"pyramid preview must read fewer backend bytes: "
        f"{pyramid_bytes} >= {raw_bytes}"
    )
    return {
        "preview": f"whole record at factor {factor}",
        "output_pixels": int(via_pyramid.data.size),
        "pyramid_level": via_pyramid.level,
        "pyramid_bytes_read": pyramid_bytes,
        "raw_bytes_read": raw_bytes,
        "bytes_ratio": round(pyramid_bytes / raw_bytes, 4),
        "pixels_identical": True,
    }


# -- window exactness --------------------------------------------------------

def bench_window_exactness(vca: str) -> dict:
    """Served windows vs a direct planner query and vs the raw record."""
    checked = []
    with File(vca, "r") as f:
        raw = np.asarray(f["VCA"][:, :], dtype=np.float64)
    with DataServer(vca) as server:
        session = server.session("probe")
        n, nch = server.n_samples, server.n_channels
        cases = [
            (0, n, (0, nch), 1),
            (n // 7, n - n // 5, (1, nch - 1), 3),
            (n // 2 - 100, n // 2 + 100, (0, 2), 1),
        ]
        for t0, t1, (lo, hi), step in cases:
            result = session.read_window(t0, t1, channels=(lo, hi), step=step)
            np.testing.assert_array_equal(
                result.data, raw[lo:hi, t0:t1][:, ::step]
            )
            with open_stream(vca) as src:
                query = Query.scan(None).select_channels(lo, hi)
                if step > 1:
                    query = query.decimate(step)
                plan = optimize(query)
                (ref,) = execute(plan, source=WindowSource(src, t0, t1))
            np.testing.assert_array_equal(result.data, ref.output)
            checked.append(
                {"t0": t0, "t1": t1, "channels": [lo, hi], "step": step}
            )
    return {"cases": checked, "bit_exact": True}


# -- closed-loop viewers -----------------------------------------------------

def bench_viewers(
    vca: str, events_path: str, n_viewers: int, requests: int
) -> dict:
    """Each tenant thread is a closed-loop viewer: issue, await, repeat —
    40% zoomed-out previews, 40% panning previews, 20% follow-live."""
    config = ServeConfig(admit_timeout=0.5)
    totals = {"admitted": 0, "rejected": 0}
    totals_lock = threading.Lock()
    with DataServer(vca, config=config, events_path=events_path) as server:
        n = server.n_samples
        live_span = max(64, n // 16)

        def viewer(idx: int) -> None:
            rng = np.random.default_rng(1000 + idx)
            session = server.session(f"viewer-{idx}")
            admitted = rejected = 0
            for _ in range(requests):
                roll = rng.random()
                try:
                    if roll < 0.4:  # zoom out: wide span, coarse pixels
                        t0 = int(rng.integers(0, n // 4))
                        t1 = int(rng.integers(3 * n // 4, n)) + 1
                        session.preview(t0, t1, int(rng.integers(80, 200)))
                    elif roll < 0.8:  # pan: fixed zoom, sliding window
                        span = n // 8
                        t0 = int(rng.integers(0, n - span))
                        session.preview(t0, t0 + span, 120)
                    else:  # follow-live: tail window + event overlay
                        session.read_window(n - live_span, n, step=2)
                        session.events(n - live_span, n)
                    admitted += 1
                except (QuotaExceededError, AdmissionQueueFullError):
                    rejected += 1
            with totals_lock:
                totals["admitted"] += admitted
                totals["rejected"] += rejected

        threads = [
            threading.Thread(target=viewer, args=(i,))
            for i in range(n_viewers)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - started
        snapshot = server.admission.snapshot()

    assert totals["admitted"] > 0
    per_tenant = {
        tenant: {
            "admitted": stats["admitted"],
            "rejected_quota": stats["rejected_quota"],
            "rejected_queue": stats["rejected_queue"],
            "latency_p50_ms": round(stats["latency"]["p50_s"] * 1e3, 3),
            "latency_p95_ms": round(stats["latency"]["p95_s"] * 1e3, 3),
        }
        for tenant, stats in snapshot.items()
    }
    return {
        "n_viewers": n_viewers,
        "requests_per_viewer": requests,
        "mix": {"zoom": 0.4, "pan": 0.4, "follow_live": 0.2},
        "wall_seconds": round(wall_s, 3),
        "total_admitted": totals["admitted"],
        "total_rejected": totals["rejected"],
        "per_tenant": per_tenant,
    }


# -- quota isolation ---------------------------------------------------------

def bench_isolation(vca: str, polite_requests: int) -> dict:
    """The published promise: a greedy tenant saturating its own quota
    cannot push a polite tenant's p95 beyond the configured bound."""
    polite_quota = TenantQuota(requests_per_s=500.0, request_burst=50.0)
    config = ServeConfig(
        quotas={
            "greedy": TenantQuota(
                requests_per_s=40.0, request_burst=4.0, max_queue=4
            ),
            "polite-solo": polite_quota,
            "polite-contended": polite_quota,
        },
        admit_timeout=0.2,
    )
    with DataServer(vca, config=config) as server:
        n = server.n_samples

        def polite_run(tenant: str) -> float:
            session = server.session(tenant)
            for _ in range(polite_requests):
                session.preview(0, n, 120)  # small, pyramid-served
                time.sleep(0.002)  # a human-paced viewer
            return server.admission.metrics(tenant)["latency"]["p95_s"]

        p95_solo = polite_run("polite-solo")

        stop = threading.Event()
        greedy_counts = {"admitted": 0, "rejected": 0}

        def greedy() -> None:
            session = server.session("greedy")
            rng = np.random.default_rng(5)
            while not stop.is_set():
                try:
                    t0 = int(rng.integers(0, n // 2))
                    # no waiting room for this client: hammer, get the
                    # typed rejection, shave the back-off hint, repeat
                    session.preview(t0, n, 200, wait=False)
                    greedy_counts["admitted"] += 1
                except QuotaExceededError as err:
                    greedy_counts["rejected"] += 1
                    # a well-behaved client backs off by the hint; a
                    # greedy one shaves it — either way the bucket gates
                    time.sleep(min(err.retry_after, 0.01))
                except AdmissionQueueFullError:
                    greedy_counts["rejected"] += 1
                    time.sleep(0.005)

        thread = threading.Thread(target=greedy)
        thread.start()
        try:
            p95_contended = polite_run("polite-contended")
        finally:
            stop.set()
            thread.join()

        bound = server.config.isolation_p95_bound
    # 5 ms floor: on a quiet machine the solo p95 is microseconds and a
    # multiplicative bound on it would assert scheduler noise
    limit = bound * max(p95_solo, 0.005)
    assert p95_contended <= limit, (
        f"polite tenant p95 {p95_contended * 1e3:.2f}ms exceeds "
        f"{bound}x isolation bound ({limit * 1e3:.2f}ms; "
        f"solo {p95_solo * 1e3:.2f}ms)"
    )
    assert greedy_counts["rejected"] > 0, "greedy tenant never hit its quota"
    return {
        "polite_requests": polite_requests,
        "polite_p95_solo_ms": round(p95_solo * 1e3, 3),
        "polite_p95_contended_ms": round(p95_contended * 1e3, 3),
        "isolation_p95_bound": bound,
        "greedy_admitted": greedy_counts["admitted"],
        "greedy_rejected": greedy_counts["rejected"],
        "within_bound": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small CI run")
    args = parser.parse_args()

    if args.smoke:
        n_channels, minutes, spm = 24, 4, 6000
        n_viewers, requests, polite_requests = 4, 20, 40
    else:
        n_channels, minutes, spm = 64, 8, 12000
        n_viewers, requests, polite_requests = 8, 50, 100
    fs = float(spm) / 60.0

    with tempfile.TemporaryDirectory() as root:
        vca, events_path, pyramid_build = build_archive(
            root, n_channels, minutes, spm, fs
        )
        preview_reduction = bench_preview_reduction(vca)
        window_exactness = bench_window_exactness(vca)
        viewers = bench_viewers(vca, events_path, n_viewers, requests)
        isolation = bench_isolation(vca, polite_requests)

    doc = {
        "smoke": bool(args.smoke),
        "workload": {
            "n_channels": n_channels,
            "minutes": minutes,
            "samples_per_minute": spm,
            "fs": fs,
        },
        "pyramid_build": pyramid_build,
        "preview_reduction": preview_reduction,
        "window_exactness": window_exactness,
        "viewers": viewers,
        "isolation": isolation,
    }
    out_path = os.path.join(REPO_ROOT, "BENCH_serve.json")
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(json.dumps(doc, indent=2))
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
