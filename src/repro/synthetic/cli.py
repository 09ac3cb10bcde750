"""``das_generate`` — write a synthetic DAS dataset to disk.

Example::

    das_generate -o data/ -m 6 -n 256 --spm 3000
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import run_cli
from repro.synthetic.generator import (
    drip_feed_dataset,
    fig1b_scene,
    generate_dataset,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="das_generate", description="Generate synthetic per-minute DAS files."
    )
    parser.add_argument("-o", "--output", required=True, help="output directory")
    parser.add_argument("-m", "--minutes", type=int, default=6)
    parser.add_argument("-n", "--channels", type=int, default=256)
    parser.add_argument(
        "--spm", type=int, default=None, help="samples per minute (default 60*fs)"
    )
    parser.add_argument("--fs", type=float, default=500.0, help="sampling rate (Hz)")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--start", default="170620100545", help="timestamp of the first file"
    )
    parser.add_argument(
        "--channel-groups",
        action="store_true",
        help="write per-channel Measurement/<i> metadata groups",
    )
    parser.add_argument(
        "--codec",
        default=None,
        metavar="SPEC",
        help="per-chunk compression of DataCT, e.g. 'transpose-zlib', "
        "'delta-zlib' or 'quantize:1e-3' (default: raw)",
    )
    parser.add_argument(
        "--drip",
        type=float,
        default=None,
        metavar="SECONDS",
        help="drip-feed mode: atomically land one file every SECONDS "
        "(emulates a live acquisition for `python -m repro.rt watch`)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    return run_cli("das_generate", _generate, build_parser().parse_args(argv))


def _generate(args: argparse.Namespace) -> int:
    scene = fig1b_scene(
        n_channels=args.channels,
        fs=args.fs,
        minutes=args.minutes,
        samples_per_minute=args.spm,
        seed=args.seed,
    )
    if args.drip is not None:
        for path in drip_feed_dataset(
            args.output,
            args.minutes,
            scene=scene,
            samples_per_minute=args.spm,
            start_timestamp=args.start,
            channel_groups=args.channel_groups,
            interval_seconds=args.drip,
            codec=args.codec,
        ):
            print(path, flush=True)
    else:
        paths = generate_dataset(
            args.output,
            args.minutes,
            scene=scene,
            samples_per_minute=args.spm,
            start_timestamp=args.start,
            channel_groups=args.channel_groups,
            codec=args.codec,
        )
        for path in paths:
            print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
