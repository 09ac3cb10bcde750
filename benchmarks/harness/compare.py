"""Compare two result documents written by ``run.py --out``.

    python3 benchmarks/harness/compare.py A.json B.json

One row per (end-to-end metric, workload) with each side's median and
quartiles over its runs, and a verdict from the bounds in
``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  either side's quartile spread is wider than the bound, so
                the runs cannot tell (never reported as "unchanged")

Per-layer metrics follow without a verdict (they carry no bound); for the
ones that are counts the row says whether the two sides agree exactly,
which they must when both ran the same seeds.  Exits 1 on any
``regressed`` row or a higher failed/attempted share, else 0.
"""

from __future__ import annotations

import statistics
import sys

from common import BENCHMARK_JSON, read_json

EXACT_UNITS = ("count", "bytes")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def collect(document: dict, trace: int) -> dict:
    """``{(workload, metric): [values]}`` over the document's runs."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in document["runs"]:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def fail_shares(document: dict) -> dict[str, float]:
    attempted: dict[str, int] = {}
    failed: dict[str, int] = {}
    for run in document["runs"]:
        name = run["workload"]
        attempted[name] = attempted.get(name, 0) + run["attempted"]
        failed[name] = failed.get(name, 0) + run["failed"]
    return {name: failed[name] / attempted[name] for name in attempted}


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    worse = median_b - median_a if better == "lower" else median_a - median_b
    return "regressed" if worse > bound * abs(median_a) else "ok"


def _cell(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:>11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(doc_a: dict, doc_b: dict, contract: dict, out=sys.stdout) -> int:
    status = 0
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    a, b = collect(doc_a, 0), collect(doc_b, 0)
    print(f"{'workload':<14} {'metric':<14} {'A median [Q1, Q3]':<42} "
          f"{'B median [Q1, Q3]':<42} verdict", file=out)
    for key in sorted(set(a) & set(b)):
        workload, name = key
        rule = bounds[name]
        result = verdict(a[key], b[key], rule["better"], rule["bound"])
        if result == "regressed":
            status = 1
        print(f"{workload:<14} {name:<14} {_cell(a[key]):<42} "
              f"{_cell(b[key]):<42} {result}", file=out)

    shares_a, shares_b = fail_shares(doc_a), fail_shares(doc_b)
    for workload in sorted(set(shares_a) & set(shares_b)):
        higher = shares_b[workload] > shares_a[workload]
        if higher:
            status = 1
        print(f"{workload:<14} {'fail_share':<14} {shares_a[workload]:<42.6g} "
              f"{shares_b[workload]:<42.6g} {'regressed' if higher else 'ok'}",
              file=out)

    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    same_seeds = sorted(r["seed"] for r in doc_a["runs"]) == sorted(
        r["seed"] for r in doc_b["runs"]
    )
    a, b = collect(doc_a, 1), collect(doc_b, 1)
    if set(a) & set(b):
        print("\nper-layer (no bounds; counts must agree exactly for equal seeds)",
              file=out)
    for key in sorted(set(a) & set(b)):
        workload, name = key
        note = ""
        if units.get(name) in EXACT_UNITS and same_seeds:
            note = "exact" if sorted(a[key]) == sorted(b[key]) else "differs"
        print(f"{workload:<14} {name:<34} {quartiles(a[key])[1]:>14.6g} "
              f"{quartiles(b[key])[1]:>14.6g} {units.get(name, ''):<10} {note}",
              file=out)
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    return compare(read_json(argv[0]), read_json(argv[1]), read_json(BENCHMARK_JSON))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
