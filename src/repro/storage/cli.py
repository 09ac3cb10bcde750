"""``das_search`` command-line tool (paper §IV-A).

Examples (matching the paper's usage)::

    das_search -d /data/das -s 170728224510 -c 2
    das_search -d /data/das -e '170728224[567]10'

Optionally merges the hits into a VCA or RCA::

    das_search -d /data/das -s 170728224510 -c 60 --vca merged_vca.h5
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.errors import run_cli
from repro.storage.rca import create_rca
from repro.storage.search import das_search
from repro.storage.vca import create_vca


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="das_search",
        description="Search DAS files by timestamp and optionally merge them.",
    )
    parser.add_argument(
        "-d", "--directory", default=".", help="directory holding DAS files"
    )
    parser.add_argument(
        "-s", "--start", help="type-1 query: start timestamp (yymmddhhmmss)"
    )
    parser.add_argument(
        "-c",
        "--count",
        type=int,
        default=None,
        help="type-1 query: number of files at/after the start",
    )
    parser.add_argument(
        "-e", "--regex", help="type-2 query: regex over file timestamps"
    )
    parser.add_argument("--vca", help="merge hits into a VCA at this path")
    parser.add_argument("--rca", help="merge hits into an RCA at this path")
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print only file paths"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    return run_cli("das_search", _search, build_parser().parse_args(argv))


def _search(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    hits = das_search(
        args.directory, start=args.start, count=args.count, pattern=args.regex
    )
    search_elapsed = time.perf_counter() - t0
    for info in hits:
        if args.quiet:
            print(info.path)
        else:
            print(f"{info.timestamp}  {info.path}")
    if not args.quiet:
        print(f"# {len(hits)} file(s) in {search_elapsed * 1e3:.3f} ms")
    if args.vca:
        t0 = time.perf_counter()
        create_vca(args.vca, hits)
        if not args.quiet:
            print(f"# VCA {args.vca} in {(time.perf_counter() - t0) * 1e3:.3f} ms")
    if args.rca:
        t0 = time.perf_counter()
        create_rca(args.rca, hits)
        if not args.quiet:
            print(f"# RCA {args.rca} in {time.perf_counter() - t0:.3f} s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
