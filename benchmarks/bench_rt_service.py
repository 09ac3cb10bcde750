"""Monitoring-service benchmark: ingest throughput and detection latency.

Drip-feeds synthetic per-minute files into a spool and runs the
:class:`repro.rt.RTService` over it, measuring what a monitoring
deployment is judged on:

* **ingest throughput** — files/sec and samples/sec through the full
  read → incremental-pipeline → event-assembly path,
* **detection latency** — p50/p95 per-file wall time, split per stage,
* **seam equivalence** — asserts the streamed event log equals one
  batch run over the concatenated record (event spans and kinds
  identical, scores within 1e-6), the property that makes the service's
  output trustworthy at file boundaries,
* **no fringe compute** — similarity columns the detector computed ÷
  columns the service emitted; asserted <= 1.05, so a change that hands
  the detector the filter's settle halo again fails CI,
* **chaos recovery** — a seeded shard kill mid-replay through the
  sharded deployment; asserts the recovered merged catalog equals the
  fault-free reference and records the detection-to-recovery time,
* **shard scaling** — shard-count → throughput/p95 curves on the
  modelled 1456-node Cori machine, calibrated from the measured
  single-shard run.

Records everything in ``BENCH_rt.json``.

Usage::

    python benchmarks/bench_rt_service.py --smoke   # small sizes, CI-friendly
    python benchmarks/bench_rt_service.py           # default sizes
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from unittest import mock

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster import cori_haswell  # noqa: E402
from repro.core.local_similarity import (  # noqa: E402
    LocalSimilarityConfig,
    LocalSimilarityOp,
    local_similarity_block,
)
from repro.daslib import butter, filtfilt  # noqa: E402
from repro.faults.chaos import ChaosSchedule  # noqa: E402
from repro.faults.policy import FailurePolicy  # noqa: E402
from repro.rt import (  # noqa: E402
    DetectorConfig,
    EventPolicy,
    HeartbeatConfig,
    RTService,
    ServiceConfig,
    ShardOptions,
    ShardSpec,
    SupervisorConfig,
    catalog_signature,
    map_events,
    project_shard_scaling,
    run_sharded,
)
from repro.synthetic.generator import (  # noqa: E402
    drip_feed_dataset,
    fig1b_scene,
    synthesize_scene,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
FS = 50.0
#: Most similarity columns the detector may compute per column emitted.
MAX_COMPUTE_RATIO = 1.05


def run_case(channels: int, minutes: int, spm: int) -> dict:
    scene = fig1b_scene(
        n_channels=channels, fs=FS, minutes=minutes, samples_per_minute=spm
    )
    similarity = LocalSimilarityConfig(
        half_window=25, channel_offset=1, half_lag=5, stride=25
    )
    detector = DetectorConfig(band=(0.5, 12.0), similarity=similarity)
    policy = EventPolicy(threshold=0.4, min_fraction=0.25)
    config = ServiceConfig(
        poll_interval=0.0, settle_seconds=0.0, stable_polls=1
    )

    spool = tempfile.mkdtemp(prefix="das-bench-spool-")
    service = RTService(spool, detector=detector, policy=policy, config=config)
    computed = 0
    similarity_apply = LocalSimilarityOp.apply

    def counting_apply(op, block, ctx):
        nonlocal computed
        out = similarity_apply(op, block, ctx)
        computed += out.shape[-1]
        return out

    t0 = time.perf_counter()
    with mock.patch.object(LocalSimilarityOp, "apply", counting_apply):
        for _ in drip_feed_dataset(
            spool, minutes, scene=scene, samples_per_minute=spm
        ):
            service.drain()
        service.flush()
    wall = time.perf_counter() - t0
    streamed = service.sink.load()
    # Flushed, the service has emitted every column of the record's grid.
    emitted = len(similarity.centers(minutes * spm))
    compute_ratio = computed / emitted
    assert compute_ratio <= MAX_COMPUTE_RATIO, (
        f"the detector computed {computed} similarity columns to emit "
        f"{emitted} ({compute_ratio:.2f}x): fringe is being computed on again"
    )

    # Seam-equivalence check against one batch pass.
    data = synthesize_scene(scene, minutes, samples_per_minute=spm).astype(
        np.float64
    )
    b, a = butter(4, (0.5, 12.0), "bandpass", fs=FS)
    sim_map, centers = local_similarity_block(
        filtfilt(b, a, data, axis=-1), similarity
    )
    batch = map_events(
        sim_map, centers, FS, policy, n_channels=channels, channel_lo=1
    )
    spans = lambda events: [(e.j_start, e.j_end, e.event.kind) for e in events]
    assert spans(streamed) == spans(batch), (
        f"seam equivalence violated: streamed {spans(streamed)} "
        f"vs batch {spans(batch)}"
    )
    score_drift = max(
        (
            abs(got.event.peak_similarity - want.event.peak_similarity)
            for got, want in zip(streamed, batch)
        ),
        default=0.0,
    )
    assert score_drift < 1e-6, f"peak similarity drifted by {score_drift}"

    snapshot = service.metrics.snapshot()
    total = snapshot["stages"].get("total", {})
    return {
        "channels": channels,
        "minutes": minutes,
        "samples_per_file": spm,
        "wall_seconds": wall,
        "files_per_second": minutes / wall,
        "samples_per_second": minutes * spm / wall,
        "events": len(streamed),
        "seam_equivalent": True,
        "max_score_drift": score_drift,
        "similarity_columns": {
            "computed": computed,
            "emitted": emitted,
            "ratio": compute_ratio,
        },
        "latency": {
            "p50_s": total.get("p50_s"),
            "p95_s": total.get("p95_s"),
            "stages": snapshot["stages"],
        },
        "ingest_lag": snapshot["ingest_lag"],
    }


def run_chaos_case(channels: int, minutes: int, spm: int) -> dict:
    """One seeded shard kill + supervised resume; the merged catalog
    must equal the fault-free batch reference."""
    similarity = LocalSimilarityConfig(
        half_window=25, channel_offset=1, half_lag=5, stride=25
    )
    detector = DetectorConfig(band=(0.5, 12.0), similarity=similarity)
    policy = EventPolicy(threshold=0.4, min_fraction=0.25)
    config = ServiceConfig(
        poll_interval=0.0,
        settle_seconds=0.0,
        stable_polls=1,
        checkpoint_every=1,
        queue_capacity=1,
        update_catalog=False,
    )
    root = tempfile.mkdtemp(prefix="das-bench-chaos-")
    specs = []
    reference_rows = []
    for shard in range(2):
        scene = fig1b_scene(
            n_channels=channels,
            fs=FS,
            minutes=minutes,
            samples_per_minute=spm,
            seed=7 + shard,
        )
        spool = os.path.join(root, f"spool-{shard}")
        ref = os.path.join(root, f"ref-{shard}")
        state = os.path.join(root, "state", f"shard-{shard}")
        for directory in (spool, ref):
            os.makedirs(directory)
            list(
                drip_feed_dataset(
                    directory, minutes, scene=scene, samples_per_minute=spm
                )
            )
        os.makedirs(state)
        spec = ShardSpec(
            shard_id=shard,
            spool=spool,
            state_dir=state,
            channel_base=shard * channels,
            expected_files=minutes,
        )
        specs.append(spec)
        service = RTService(
            ref, detector=detector, policy=policy, config=config
        )
        service.drain()
        service.flush()
        for record, event in service.sink.load_records():
            reference_rows.append(
                (shard, record, event.rebased(spec.channel_base))
            )
    expected = catalog_signature(reference_rows)

    chaos = ChaosSchedule.single("kill-at-file", shard=1, at_file=minutes)
    t0 = time.perf_counter()
    result = run_sharded(
        specs,
        options=ShardOptions(
            detector=detector,
            event_policy=policy,
            service_config=config,
            restart_policy=FailurePolicy(retries=6, backoff=0.005),
            idle_sleep=0.001,
        ),
        supervisor=SupervisorConfig(
            heartbeat=HeartbeatConfig(
                interval=0.01, suspect_after=0.1, dead_after=0.3
            ),
            poll_sleep=0.002,
        ),
        chaos=chaos,
    )
    wall = time.perf_counter() - t0
    assert result["signature"] == expected, (
        "chaos invariant violated: recovered catalog differs from the "
        "fault-free reference"
    )
    assert result["restarts"][1] >= 1, "the kill must have forced a restart"
    return {
        "shards": 2,
        "fault": "kill-at-file",
        "killed_shard": 1,
        "at_file": minutes,
        "wall_seconds": wall,
        "recovery_seconds": result["recovery_s"].get(1),
        "restarts": result["restarts"],
        "duplicates_dropped": result["duplicates"],
        "events": result["events"],
        "catalog_equivalent": True,
    }


def run_scaling_curves(measured: dict) -> dict:
    """Shard-count → throughput/p95 on the modelled 1456-node machine,
    calibrated from the measured single-shard run."""
    per_file = measured["latency"]["p50_s"] or (
        measured["wall_seconds"] / measured["minutes"]
    )
    events_per_file = max(1, measured["events"] / measured["minutes"])
    cluster = cori_haswell(1456)
    points = project_shard_scaling(
        cluster,
        shard_counts=[1, 2, 4, 8, 16, 64, 256, 1024, 1456],
        file_interval_s=60.0,
        process_s_per_file=per_file,
        event_bytes_per_file=events_per_file * 256.0,
        heartbeat_interval_s=1.0,
    )
    knee = next(
        (p.shards for p in points if p.saturated), None
    )
    return {
        "cluster": cluster.name,
        "nodes": cluster.nodes,
        "calibration": {
            "process_s_per_file": per_file,
            "events_per_file": events_per_file,
        },
        "saturation_knee_shards": knee,
        "points": [p.to_json() for p in points],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small CI sizes")
    parser.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, "BENCH_rt.json"),
        help="JSON output path",
    )
    args = parser.parse_args()

    if args.smoke:
        cases = [(48, 4, 600)]
    else:
        cases = [(96, 6, 3000), (192, 6, 3000)]

    results = []
    for channels, minutes, spm in cases:
        print(f"== {channels} channels, {minutes} files x {spm} samples ==")
        entry = run_case(channels, minutes, spm)
        print(
            f"  throughput : {entry['files_per_second']:.1f} files/s "
            f"({entry['samples_per_second'] / 1e6:.2f} Msamples/s)"
        )
        latency = entry["latency"]
        print(
            f"  latency    : p50 {latency['p50_s'] * 1e3:.1f} ms, "
            f"p95 {latency['p95_s'] * 1e3:.1f} ms per file"
        )
        print(
            f"  events     : {entry['events']}, seam-equivalent to batch "
            f"(score drift {entry['max_score_drift']:.1e})"
        )
        columns = entry["similarity_columns"]
        print(
            f"  similarity : {columns['computed']} columns computed for "
            f"{columns['emitted']} emitted ({columns['ratio']:.3f}x)"
        )
        results.append(entry)

    chaos_channels, chaos_minutes, chaos_spm = (
        (48, 4, 600) if args.smoke else (96, 4, 1200)
    )
    print(
        f"== chaos: 2 shards, seeded kill, {chaos_channels} channels x "
        f"{chaos_minutes} files =="
    )
    chaos_entry = run_chaos_case(chaos_channels, chaos_minutes, chaos_spm)
    recovery = max(chaos_entry["recovery_seconds"])
    print(
        f"  recovery   : {recovery:.3f} s detection-to-resume, "
        f"{chaos_entry['duplicates_dropped']} replayed rows deduplicated"
    )
    print("  invariant  : recovered catalog == fault-free reference")

    scaling = run_scaling_curves(results[0])
    knee = scaling["saturation_knee_shards"]
    print(
        f"== scaling: {scaling['nodes']}-node {scaling['cluster']} model, "
        f"knee at {knee if knee else '>1456'} shards =="
    )

    payload = {
        "benchmark": "rt_service",
        "cases": results,
        "chaos": chaos_entry,
        "shard_scaling": scaling,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
