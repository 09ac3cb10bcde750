#!/usr/bin/env bash
# CI entry point.  `scripts/ci.sh` runs the static checks (repro.checks against
# scripts/checks_baseline.json, then the incremental smoke: --changed-since on
# an unchanged tree re-analyzes nothing and replays the full run's findings
# byte for byte), the tier-1 suite and the harness's self-tests.  It times
# nothing: every deterministic invariant a layer claims is a tier-1 test.
#
# `scripts/ci.sh --bench [REFERENCE]` is the performance gate: five untraced
# runs of each harness workload (~7 min), judged by compare.py under
# BENCHMARK.json's bounds against benchmarks/results/reference.json.  It exits
# with compare.py's status (non-zero on a `regressed` row or a higher failed
# share) and appends one line to benchmarks/results/history.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${1:-}" == "--bench" ]]; then
    reference="${2:-benchmarks/results/reference.json}"
    runs="$(mktemp benchmarks/results/.gate.XXXXXX)"
    trap 'rm -f "$runs"' EXIT
    python3 benchmarks/harness/run.py --runs 5 --trace 0 --out "$runs"
    status=0
    python3 benchmarks/harness/compare.py "$reference" "$runs" || status=$?
    python3 - "$reference" "$runs" "$status" >> benchmarks/results/history.jsonl <<'EOF'
import datetime, json, sys

sys.path.insert(0, "benchmarks/harness")
from common import read_json
from compare import collect, quartiles

reference, runs, status = sys.argv[1:]
document = read_json(runs)
medians = {f"{w}.{m}": quartiles(v)[1] for (w, m), v in sorted(collect(document, 0).items())}
print(json.dumps({
    "when": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    "commit": document["env"]["commit"],
    "reference": reference,
    "verdict": "ok" if status == "0" else "regressed",
    "seeds": sorted({run["seed"] for run in document["runs"]}),
    "medians": medians,
}))
EOF
    exit "$status"
fi

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
