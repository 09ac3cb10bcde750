"""``das_analyze`` — the end-to-end command: search → merge → analyse.

Examples::

    das_analyze -d data/ -s 170620100545 -c 6 --analysis similarity \
                -o simi.h5 --fs 500
    das_analyze -d data/ -e '1706201005.*' --analysis interferometry -o corr.h5
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.core.detection import detect_events
from repro.core.framework import DASSA
from repro.core.interferometry import InterferometryConfig
from repro.core.local_similarity import LocalSimilarityConfig
from repro.errors import run_cli
from repro.hdf5lite import File


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="das_analyze",
        description="Search, merge, and analyse DAS data in one command.",
    )
    parser.add_argument("-d", "--directory", required=True)
    parser.add_argument("-s", "--start", help="type-1 query start timestamp")
    parser.add_argument("-c", "--count", type=int, default=None)
    parser.add_argument("-e", "--regex", help="type-2 query regex")
    parser.add_argument(
        "--analysis",
        choices=("similarity", "interferometry"),
        default="similarity",
    )
    parser.add_argument("-o", "--output", help="write results to this hdf5lite file")
    parser.add_argument("--threads", type=int, default=4)
    # similarity knobs (Algorithm 2)
    parser.add_argument("--half-window", type=int, default=25, help="M")
    parser.add_argument("--channel-offset", type=int, default=1, help="K")
    parser.add_argument("--half-lag", type=int, default=5, help="L")
    parser.add_argument("--stride", type=int, default=25)
    parser.add_argument("--detect", action="store_true", help="pick events")
    parser.add_argument("--threshold", type=float, default=3.0)
    # interferometry knobs (Algorithm 3)
    parser.add_argument("--band", type=float, nargs=2, default=(0.5, 12.0))
    parser.add_argument("--resample-q", type=int, default=10)
    parser.add_argument("--master", type=int, default=0)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    return run_cli("das_analyze", _analyze, build_parser().parse_args(argv))


def _analyze(args: argparse.Namespace) -> int:
    with DASSA(threads=args.threads) as dassa:
        hits = dassa.search(
            args.directory, start=args.start, count=args.count, pattern=args.regex
        )
        if not hits:
            print("das_analyze: no files matched", file=sys.stderr)
            return 1
        print(f"merged {len(hits)} files "
              f"({hits[0].timestamp} .. {hits[-1].timestamp})")
        vca = dassa.merge(hits)

        from repro.storage.vca import open_vca

        with open_vca(vca) as handle:
            fs = handle.metadata.sampling_frequency
            shape = handle.shape
        print(f"array: {shape[0]} channels x {shape[1]} samples at {fs:g} Hz")

        if args.analysis == "similarity":
            config = LocalSimilarityConfig(
                half_window=args.half_window,
                channel_offset=args.channel_offset,
                half_lag=args.half_lag,
                stride=args.stride,
            )
            simi, centers = dassa.local_similarity(vca, config)
            print(f"similarity map: {simi.shape}")
            if args.output:
                with File(args.output, "w") as f:
                    f.attrs["analysis"] = "local-similarity"
                    f.attrs["fs"] = fs
                    f.create_dataset("similarity", data=simi)
                    f.create_dataset("centers", data=centers.astype(np.int64))
                print(f"wrote {args.output}")
            if args.detect:
                events = detect_events(
                    simi,
                    centers,
                    fs=fs,
                    threshold_sigmas=args.threshold,
                    remove_channel_bias=True,
                    split_array_wide=True,
                )
                print(f"{len(events)} event(s):")
                for ev in events:
                    print(
                        f"  {ev.kind:<12} channels {ev.channel_lo}-{ev.channel_hi}"
                        f"  t={ev.t_start:.1f}-{ev.t_end:.1f}s"
                        f"  peak={ev.peak_similarity:.2f}"
                    )
        else:
            config = InterferometryConfig(
                fs=fs,
                band=(args.band[0], args.band[1]),
                resample_q=args.resample_q,
                master_channel=args.master,
            )
            corr = dassa.interferometry(vca, config)
            print(f"per-channel |corr| vs master {args.master}: "
                  f"mean={corr.mean():.3f} max={corr.max():.3f}")
            if args.output:
                with File(args.output, "w") as f:
                    f.attrs["analysis"] = "interferometry"
                    f.attrs["fs"] = fs
                    f.attrs["master"] = args.master
                    f.create_dataset("correlation", data=corr)
                print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
