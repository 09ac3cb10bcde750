#!/usr/bin/env bash
# CI entry point: static checks, the tier-1 test suite, the benchmark
# harness's own self-tests (benchmarks/harness/tests), and the per-layer
# benchmark smoke runs.
#
# The cache smoke run asserts the cached VCA read path issues strictly
# fewer file opens and backend read requests than the uncached path, and
# that a budget-0 cache reproduces uncached behaviour byte-for-byte
# (BENCH_cache.json).  The pipeline smoke run asserts the one chunk-loop
# kernel matches materialized execution to 1e-9 while its peak resident
# bytes stay strictly below, that a run starts no more threads than
# `threads` (one pool per run) and that no source read leaves the
# calling thread (BENCH_pipeline.json).  The rt
# smoke run drip-feeds a spool through the monitoring service and
# asserts its event log is seam-equivalent to one batch run over the
# concatenated record (BENCH_rt.json).  The faults smoke run asserts
# checksum verification costs < 10% on the cached VCA read path and that
# masked degraded reads are equivalent to clean runs outside the masked
# spans (BENCH_faults.json).  The compress smoke run asserts the lossless
# codec roundtrip through storage is bit-identical and that compressed
# source files move strictly fewer backend bytes than raw on a full VCA
# read (BENCH_compress.json).  The planner smoke run asserts pushdown
# plans issue no more backend requests and read no more bytes than
# their eager reference's bounding blocks with bit-identical output
# (and, at the full size, run no slower), and that a shared-prefix
# two-detector co-run beats two single-detector runs in wall time and
# bytes read (BENCH_planner.json).  The serve smoke run asserts pyramid
# previews read strictly fewer backend bytes than raw-path decimation with
# identical pixels, served windows are bit-exact against a direct
# planner query, and a greedy tenant saturating its quota leaves a
# polite tenant's p95 latency within the configured isolation bound
# (BENCH_serve.json).  repro.checks rejects new lock-discipline,
# exception-taxonomy, operator-contract, planner-geometry, public-API,
# simmpi-protocol, resource-lifecycle, atomic-persistence, and BLAS-call
# (BLS001: no BLAS-backed product on the analysis path) findings
# not in scripts/checks_baseline.json; the incremental smoke then
# proves --changed-since on the unchanged tree re-analyzes zero
# modules and replays the full run's findings byte-for-byte.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m repro.checks --baseline scripts/checks_baseline.json
python - <<'EOF'
import json, subprocess, sys, time

def run_checks(*args):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.checks", "--json",
         "--baseline", "scripts/checks_baseline.json", *args],
        capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout), time.perf_counter() - started

full, full_s = run_checks()
incr, incr_s = run_checks("--changed-since", "HEAD")
state = incr["incremental"]
assert state["modules_reanalyzed"] == [], state
assert json.dumps(incr["findings"]) == json.dumps(full["findings"])
print(f"checks incremental smoke: full {full_s:.2f}s -> --changed-since "
      f"{incr_s:.2f}s, {state['modules_replayed']} modules replayed, "
      f"findings byte-identical")
EOF
python -m pytest -x -q
python -m pytest benchmarks/harness/tests -q
python benchmarks/bench_cache.py --smoke
python benchmarks/bench_pipeline.py --smoke
python benchmarks/bench_rt_service.py --smoke
python benchmarks/bench_faults.py --smoke
python benchmarks/bench_compress.py --smoke
python benchmarks/bench_planner.py --smoke
python benchmarks/bench_serve.py --smoke
