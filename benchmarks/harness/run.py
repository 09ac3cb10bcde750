"""The repository benchmark: one command, five workloads, every metric.

Driver contract (see ``BENCHMARK.json``)::

    python3 benchmarks/harness/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

sets the workload up from the seed (five times; ``setup_s`` is the
median), measures it in a fresh interpreter for about ``S`` seconds,
verifies the outputs, prints every metric by name with its unit and, as the
last line of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs all five, untraced then traced, which is
the form ``compare.py`` consumes (``--out A.json``, ``--runs N`` for N
seeds per workload).  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import common

common.bootstrap_src()

import calib  # noqa: E402
import envinfo  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: The driver allows a run 180 s; a stuck child is killed before that.
CHILD_TIMEOUT_S = 170


def set_up(module, seed: int, params: dict, work: str):
    """Run the workload's set-up ``SETUPS`` times into fresh directories;
    returns the last manifest and every set-up's seconds (speed-normalised
    and raw)."""
    seconds, raw_seconds, manifest, previous = [], [], None, None
    before = calib.probe()
    for index in range(SETUPS):
        root = os.path.join(work, f"setup{index}")
        os.makedirs(root)
        started = time.perf_counter()
        manifest = module.setup(seed, dict(params), root)
        raw_seconds.append(time.perf_counter() - started)
        after = calib.probe()
        seconds.append(raw_seconds[-1] * calib.factor(before, after))
        if previous is not None:
            shutil.rmtree(previous)
        previous = root
        before = calib.probe()
    return manifest, seconds, raw_seconds


def measure(manifest: dict, work: str, seconds: float, trace: int,
            trace_out: str | None, corrupt: bool) -> dict:
    """Run ``measure.py`` on the manifest in a fresh interpreter."""
    manifest_path = os.path.join(work, "manifest.json")
    report_path = os.path.join(work, "report.json")
    common.write_json(manifest_path, manifest)
    command = [
        sys.executable, os.path.join(common.HARNESS_DIR, "measure.py"),
        "--manifest", manifest_path, "--out", report_path,
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    if corrupt:
        command.append("--corrupt")
    # the child's stdout joins our stderr: our own last stdout line is the result
    proc = subprocess.run(
        command, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"benchmark harness: measured phase of {manifest['workload']} "
            f"exited with {proc.returncode}"
        )
    return common.read_json(report_path)


def end_to_end(report: dict, manifest: dict, setup_seconds: list[float]) -> tuple[dict, dict]:
    """Medians over the timed passes.  A latency percentile is taken inside
    each pass and the median pass reported: the machine's speed steps hit
    whole passes, and one disturbed pass must not own the pooled tail."""
    passes = report["passes"]

    def latency(q: float) -> float:
        return common.median([
            common.percentile([seconds * 1e3 for _kind, seconds, _raw in p["ops"]], q)
            for p in passes
        ])

    values = {
        "setup_s": common.median(setup_seconds),
        "wall_s": common.median([p["wall_s"] for p in passes]),
        "peak_rss_mb": report["peak_rss_mb"],
        "lat_p50_ms": latency(50),
        "lat_p95_ms": latency(95),
        "stored_ratio": report["stored_bytes"] / manifest["logical_bytes"],
    }
    samples = {
        "setup_s": len(setup_seconds),
        "wall_s": len(passes),
        "peak_rss_mb": 1,
        "stored_ratio": 1,
        **dict.fromkeys(
            ("lat_p50_ms", "lat_p95_ms"), sum(len(p["ops"]) for p in passes)
        ),
    }
    return values, samples


def run_one(workload: str, seed: int, seconds: float, trace: int, scale: str,
            trace_out: str | None = None, corrupt: bool = False) -> dict:
    """One run of one workload; returns its result record."""
    module = workloads.load(workload)
    params = common.SCALES[scale][workload]
    os.makedirs(common.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=common.WORK_ROOT)
    try:
        manifest, setup_seconds, raw_setup_seconds = set_up(module, seed, params, work)
        report = measure(manifest, work, seconds, trace, trace_out, corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # what the clock read, before speed normalisation (see calib.py)
    raw = {
        "setup_s": common.median(raw_setup_seconds),
        "wall_s": common.median([p["raw_wall_s"] for p in report["passes"]]),
    }

    if trace:
        values = dict(report["layer"])
        values["synthetic.generate_mbps"] = manifest["raw_bytes"] / manifest["gen_s"] / 1e6
        taken = {m.name for m in spec.layer_metrics_for(workload)}
        if set(values) != taken:
            raise SystemExit(
                f"benchmark harness: {workload} reported "
                f"{sorted(set(values) ^ taken)} outside its declared metrics"
            )
        samples = {}
    else:
        values, samples = end_to_end(report, manifest, setup_seconds)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in values.items()
        },
        "samples": samples,
        "raw": raw,
        "diagnostics": report["diagnostics"],
    }


def contract_line(record: dict) -> str:
    """The driver's result object.  A traced run must list every declared
    per-layer metric; the ones this workload does not take read 0."""
    metrics = dict(record["metrics"])
    if record["trace"]:
        for name in spec.LAYER_NAMES:
            metrics.setdefault(name, {"value": 0.0, "unit": spec.UNITS[name]})
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def print_record(record: dict) -> None:
    kind = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']} seed={record['seed']} {kind}: "
        f"{record['attempted']} ops, {record['failed']} failed"
    )
    for name, metric in record["metrics"].items():
        count = record["samples"].get(name)
        suffix = f"  (n={count})" if count else ""
        if name in record["raw"] and not record["trace"]:
            suffix += f"  (raw clock {record['raw'][name]:.6g})"
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}{suffix}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--scale", choices=tuple(common.SCALES), default="mid")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds per workload (seed, seed+1, ...)")
    parser.add_argument("--out", default=None, help="write the result document here")
    parser.add_argument("--trace-out", default=None,
                        help="prefix for <prefix>.<workload>.jsonl / .chrome.json")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    envinfo.require_cores()
    names = [args.workload] if args.workload else list(workloads.NAMES)
    traces = [args.trace] if args.trace is not None else [0, 1]
    if args.workload and args.trace is None:
        traces = [0]

    records = []
    for offset in range(args.runs):
        for name in names:
            for trace in traces:
                trace_out = (
                    os.path.abspath(f"{args.trace_out}.{name}")
                    if args.trace_out and trace else None
                )
                record = run_one(
                    name, args.seed + offset, args.seconds, trace, args.scale,
                    trace_out=trace_out, corrupt=args.corrupt,
                )
                print_record(record)
                records.append(record)
    if args.out:
        common.write_json(args.out, {
            "env": envinfo.fingerprint(args.scale, args.seed),
            "runs": records,
        })
    if args.workload and len(records) == 1:
        print(contract_line(records[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
