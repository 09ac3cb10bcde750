#!/usr/bin/env bash
# CI entry point.  `scripts/ci.sh` runs the static checks once (repro.checks,
# four AST analyzer families, against scripts/checks_baseline.json), the src/
# line budget (24 000), the tier-1 suite, every crash point of the file
# writers, the in-source doctests, the hdf5lite codec suites under
# `taskset -c 0`, the source-handle suites under a 256-descriptor limit
# (`ulimit -n 256`), the paper-figure tests and the harness's self-tests.  Every
# pytest step runs under pyproject.toml's filterwarnings, which make a leaked
# handle (a ResourceWarning) an error.  The figure tests rewrite
# benchmarks/results/*.txt; every table must come out byte-identical except
# fig6_search_merge.txt and fig9_matlab.txt, the two with wall-clock rows.
# It gates no timing: every deterministic invariant a layer claims is a test.
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
# The source budget: src/ stays at or under 24 000 lines of Python.
src_lines="$(find src -name '*.py' -print0 | xargs -0 cat | wc -l)"
echo "src/ lines: $src_lines (budget 24000)"
if (( src_lines > 24000 )); then
    echo "src/ is over its 24000-line budget" >&2
    exit 1
fi
python -m pytest -x -q
# Every crash point of the four file writers (tier-1 kills each at its
# first, middle and last write and at the publish).
python -m pytest -q tests/test_hdf5lite_publish.py --every-crash-point
# The in-source doctests (units, timer, hyperslab, dtype).
python -m pytest --doctest-modules src/repro -q
# The codec suites again on a one-CPU affinity mask: the encode and decode
# pools' no-thread path, on a real mask rather than a patched CPU count.
taskset -c 0 python -m pytest -q tests/test_hdf5lite_read_direct.py \
    tests/test_hdf5lite_chunk_store.py tests/test_hdf5lite_codecs.py \
    tests/test_codec_composition.py
# The suites that open many source files again under a real descriptor
# limit: a read holds at most DEFAULT_MAX_HANDLES (64) source files open,
# however many minutes its VCA merges.
( ulimit -n 256; python -m pytest -q tests/test_vca_handle.py \
    tests/test_storage_parallel_read.py tests/test_hdf5lite_cache.py \
    tests/test_storage_search.py tests/test_source_handle_bound.py )
python -m pytest benchmarks/ --ignore=benchmarks/harness --benchmark-disable -q
git diff --exit-code -- 'benchmarks/results/*.txt' \
    ':!benchmarks/results/fig6_search_merge.txt' \
    ':!benchmarks/results/fig9_matlab.txt'
python -m pytest benchmarks/harness/tests -q
