"""The benchmark's vocabulary: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 benchmarks/harness/spec.py --write``) and the self-tests assert
the two agree, so a metric cannot be printed under a name the contract
file does not declare.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from common import BENCHMARK_JSON

#: Seconds of timed passes per run (the driver passes it back as --seconds).
RUN_SECONDS = 10

WORKLOADS: dict[str, str] = {
    "batch_detect": (
        "Paper Alg. 2/3 through the DASSA facade on raw per-minute files: "
        "operators and executor dominate, reads stay under 5%, so a "
        "read-path change must not move it"
    ),
    "archive_scan": (
        "Compute-free optimized plans over raw and chunked+zlib+CRC layouts "
        "with no program cache: every read reaches the backend, so pushdown, "
        "coalescing, codec and CRC changes show here"
    ),
    "serve_fleet": (
        "Two closed-loop tenants issue small warm preview/window/event "
        "requests at a DataServer whose cache fits the archive: per-request "
        "cost dominates, the opposite regime to archive_scan"
    ),
    "rt_drip": (
        "Per-minute files dripped back to back into an RTService spool: the "
        "batch operators through the incremental executor plus per-file "
        "open, catalog, sink and checkpoint costs"
    ),
    "archive_build": (
        "Write side: compressed checksummed files, VCA, RCA and pyramid "
        "into fresh directories, so read speed bought with write time or "
        "footprint shows"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: workloads whose traced pass takes this metric ("*" = all); every
    #: end-to-end metric is taken on every workload.
    taken_on: tuple[str, ...] = ("*",)
    bound: float | None = None

    def on(self, workload: str) -> bool:
        return "*" in self.taken_on or workload in self.taken_on


# Bounds: 2.5-3 times the widest quartile spread any workload showed over
# five calibration sets of ten seeds (README, "Calibration") — for the
# timings that is the contract's cap of 25 % — and never tighter than the
# issue's table.  ``fail_share`` is carried by
# the result line's ``failed``/``attempted`` fields (the contract forbids a
# metric that reads 0), where any increase is refused.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("wall_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.20),
    Metric("lat_p50_ms", "ms", "lower", bound=0.25),
    Metric("lat_p95_ms", "ms", "lower", bound=0.25),
    Metric("stored_ratio", "ratio", "lower", bound=0.01),
)

_READERS = ("batch_detect", "archive_scan", "serve_fleet")
_BATCH = ("batch_detect",)
_SCAN = ("archive_scan",)
_SERVE = ("serve_fleet",)
_RT = ("rt_drip",)
_BUILD = ("archive_build",)


def _layer(prefix: str, taken_on: tuple[str, ...], rows: str) -> list[Metric]:
    """``rows`` is whitespace-separated ``name:unit:better`` triples."""
    out = []
    for row in rows.split():
        name, unit, better = row.split(":")
        out.append(
            Metric(
                f"{prefix}.{name}",
                unit,
                {"+": "higher", "-": "lower"}[better],
                taken_on,
            )
        )
    return out


PER_LAYER: tuple[Metric, ...] = tuple(
    _layer("hdf5lite", _READERS, """
        backend_reads:count:- backend_bytes:bytes:- opens:count:-
        seeks:count:- read_amplification:ratio:-""")
    + _layer("hdf5lite", _SERVE, """
        cache_hit_ratio:ratio:+ cache_evictions:count:- pool_hit_ratio:ratio:+""")
    + _layer("hdf5lite", _SCAN, """
        contig_read_mbps:MB/s:+ chunked_read_mbps:MB/s:+ strided_read_mbps:MB/s:+
        cached_read_mbps:MB/s:+ thrash_read_mbps:MB/s:+ decode_mbps:MB/s:+
        crc_verify_mbps:MB/s:+ cache_get_us:us:-""")
    + _layer("hdf5lite", _BUILD, """
        encode_mbps:MB/s:+ write_packed_mbps:MB/s:+ write_contig_mbps:MB/s:+""")
    + _layer("storage", _SCAN, """
        read_full_raw_s:s:- read_block_raw_s:s:- read_strided_raw_s:s:-
        read_strided_block_raw_s:s:- read_full_packed_s:s:-
        read_block_packed_s:s:- read_strided_packed_s:s:-
        read_strided_block_packed_s:s:- read_calls:count:-""")
    + _layer("storage", _BATCH, "search_ms:ms:-")
    + _layer("storage", _BATCH + _BUILD, "vca_create_ms:ms:-")
    + _layer("storage", _BUILD, "rca_create_s:s:-")
    + _layer("storage", _BATCH, """
        par_read_coll_vs:s:- par_read_avoid_vs:s:- par_read_avoid_wall_s:s:-""")
    + _layer("daslib", _BATCH, """
        filtfilt_msps:Msample/s:+ resample_msps:Msample/s:+
        detrend_msps:Msample/s:+ abscorr_msps:Msample/s:+ rfft_msps:Msample/s:+""")
    + _layer("arrayudf", _BATCH, """
        thread_speedup:ratio:+ apply_mt_s:s:- haee_wall_s:s:- haee_vs:s:-""")
    + _layer("core", _BATCH, """
        alg2_s:s:- alg3_s:s:- corun_s:s:- detect_s:s:- optimize_ms:ms:-
        op_local_similarity_s:s:- op_filtfilt_s:s:- op_resample_s:s:-
        op_detrend_s:s:- op_sta_lta_s:s:- op_other_s:s:- read_phase_s:s:-
        n_chunks:count:- halo_overhead:ratio:- peak_resident_mb:MiB:-
        cse_hits:count:+ thread_busy_ratio:ratio:+""")
    + _layer("core", _SCAN, "exec_overhead_s:s:-")
    + _layer("rt", _RT, """
        read_p50_ms:ms:- pipeline_p50_ms:ms:- events_p50_ms:ms:-
        stage_total_p50_ms:ms:- ingest_lag_p50_ms:ms:- events_emitted:count:+
        quarantined:count:- tick_overhead_ms:ms:- checkpoint_ms:ms:-
        sharded_files_per_s:1/s:+ sharded_duplicates:count:-""")
    + _layer("serve", _SERVE, """
        req_per_s:1/s:+ lat_p50_ms:ms:- lat_p99_ms:ms:- zoom_p50_ms:ms:-
        pan_p50_ms:ms:- window_p50_ms:ms:- strided_p50_ms:ms:-
        events_p50_ms:ms:- admit_wait_p95_ms:ms:- rejected:count:-
        backend_bytes_per_req:bytes:- pyramid_hit_ratio:ratio:+""")
    + _layer("serve", _BUILD, "pyramid_build_s:s:- pyramid_bytes_ratio:ratio:-")
    + _layer("simmpi", _BATCH, """
        msgs:count:- msg_bytes:bytes:- comm_vs:s:- pingpong_us:us:-
        allreduce_us:us:- spawn_ms:ms:-""")
    + _layer("cluster", _BATCH, """
        model_coll_s:s:- model_avoid_s:s:- model_error_avoid:ratio:-""")
    + _layer("synthetic", ("*",), "generate_mbps:MB/s:+")
    + _layer("harness", ("*",), """
        trace_overhead_share:share:- unattributed_share:share:- spans:count:-""")
)

E2E_NAMES = tuple(m.name for m in END_TO_END)
LAYER_NAMES = tuple(m.name for m in PER_LAYER)
BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}
UNITS = {name: m.unit for name, m in BY_NAME.items()}


def layer_metrics_for(workload: str) -> list[Metric]:
    return [m for m in PER_LAYER if m.on(workload)]


def benchmark_document() -> dict:
    """The ``BENCHMARK.json`` contract document."""
    return {
        "command": ["python3", "benchmarks/harness/run.py"],
        "paths": ["benchmarks/harness"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def main(argv: list[str]) -> int:
    text = json.dumps(benchmark_document(), indent=2) + "\n"
    if "--write" in argv:
        with open(BENCHMARK_JSON, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
