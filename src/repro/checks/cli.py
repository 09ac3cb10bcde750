"""``python -m repro.checks`` — run the analyzer suite.

Exit status: 0 when every finding is baselined (or none exist),
1 when new findings surface, 2 on usage errors.

The baseline defaults to ``<root>/scripts/checks_baseline.json`` when
present; ``--no-baseline`` ignores it, ``--update-baseline`` rewrites
its ``findings`` list from the current run (waivers are preserved).
``--json`` emits a stable, sorted document suitable for diffing, with
per-analyzer wall times.  Every run analyzes the whole tree (a few
seconds) and writes nothing but what it was asked to.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.checks.baseline import Baseline
from repro.checks.registry import all_analyzers
from repro.checks.runner import load_project, run_analyzers
from repro.errors import ReproError

__all__ = ["main", "build_parser"]

DEFAULT_BASELINE = "scripts/checks_baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description="AST-based concurrency & contract checks for the repro tree",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to scan (default: src/repro benchmarks examples)",
    )
    parser.add_argument(
        "--root", default=".",
        help="repository root (default: current directory)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a stable sorted JSON document instead of text",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file (default: {DEFAULT_BASELINE} under --root when present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline's findings list from this run and exit 0",
    )
    parser.add_argument(
        "--only", default=None, metavar="RULES",
        help="comma-separated rule families or codes "
             "(e.g. exception-taxonomy or TAX001,LCK001)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules() -> int:
    for analyzer in all_analyzers():
        print(f"{analyzer.name}: {analyzer.description}")
        for code, text in sorted(analyzer.codes.items()):
            print(f"  {code}  {text}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()

    root = Path(args.root).resolve()
    baseline_path: Path | None = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
            if not baseline_path.is_absolute():
                baseline_path = root / baseline_path
        elif (root / DEFAULT_BASELINE).exists():
            baseline_path = root / DEFAULT_BASELINE

    only = args.only.split(",") if args.only else None
    timings: dict[str, float] = {}
    try:
        project = load_project(root, args.paths or None)
        findings = run_analyzers(project, only=only, timings=timings)
        baseline = Baseline.load(baseline_path)
    except ReproError as exc:  # bad paths, rules or baseline: a usage error here
        print(f"repro.checks: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        if baseline_path is None:
            baseline_path = root / DEFAULT_BASELINE
        baseline.save(baseline_path, findings)
        pinned = len(baseline.updated_document(findings)["findings"])
        print(f"repro.checks: baseline updated ({pinned} findings pinned) "
              f"-> {baseline_path}")
        return 0

    new, baselined = baseline.split(findings)

    if args.as_json:
        document = {
            "root": str(root),
            "modules_scanned": len(project.modules),
            "findings": [f.to_dict() for f in new],
            "baselined": len(baselined),
            "timings_ms": timings,
        }
        print(json.dumps(document, indent=2, sort_keys=False))
    else:
        for finding in new:
            print(finding.format())
        summary = (
            f"repro.checks: {len(new)} new finding(s), "
            f"{len(baselined)} baselined, {len(project.modules)} modules scanned"
        )
        print(summary if new else f"{summary} — OK")
    return 1 if new else 0
