"""``das_inspect`` — list and verify hdf5lite files from the shell.

Examples::

    das_inspect data/westSac_170620100545.h5
    das_inspect --attrs merged_vca.h5
    das_inspect --verify merged_vca.h5     # exit code 1 if damaged
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import run_cli
from repro.hdf5lite.file import File
from repro.hdf5lite.inspect import describe, verify


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="das_inspect", description="List or verify hdf5lite/DAS files."
    )
    parser.add_argument("files", nargs="+", help="files to inspect")
    parser.add_argument(
        "-a", "--attrs", action="store_true", help="also print attributes"
    )
    parser.add_argument(
        "-v",
        "--verify",
        action="store_true",
        help="run integrity checks; non-zero exit if problems are found",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return max(
        run_cli(f"das_inspect: {path}", _inspect, path, args) for path in args.files
    )


def _inspect(path: str, args: argparse.Namespace) -> int:
    """List one file (and verify it): 1 when verification finds problems."""
    with File(path, "r") as f:
        print(describe(f, attrs=args.attrs))
        if not args.verify:
            return 0
        problems = verify(f)
        for problem in problems:
            print(f"  PROBLEM {problem}", file=sys.stderr)
        if problems:
            return 1
        print("  integrity: ok")
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
