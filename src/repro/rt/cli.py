"""``python -m repro.rt`` — the monitoring service's command line.

``watch`` runs the service loop over a spool directory until SIGTERM /
SIGINT (checkpointing on the way out, so the next ``watch`` resumes) or,
with ``--drain``, until the spool is quiet; ``watch --shards N`` runs
the supervised sharded deployment over ``<root>/shard-<i>``
subdirectories (one interrogator spool each) and prints the merged
catalog summary; ``status`` prints the event log and quarantine of a
spool — plus per-shard health when a supervisor has written its health
file there — without running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro.core.local_similarity import LocalSimilarityConfig
from repro.errors import ConfigError, CorruptDataError, run_cli
from repro.rt.events import EventPolicy, read_event_log
from repro.rt.ingest import Quarantine, is_acquisition_file
from repro.rt.scheduler import DETECTORS, DetectorConfig
from repro.rt.service import EVENTS_NAME, RTService, ServiceConfig
from repro.rt.shard import ShardOptions, ShardSpec
from repro.rt.supervisor import HEALTH_NAME, SupervisorConfig, run_sharded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.rt",
        description="Real-time DAS monitoring over a spool directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    watch = sub.add_parser("watch", help="run the monitoring service")
    watch.add_argument("spool", help="directory acquisition files land in")
    watch.add_argument(
        "--drain",
        action="store_true",
        help="process what is there, flush the record, and exit",
    )
    watch.add_argument(
        "--max-ticks", type=int, default=None, help="stop after N polls"
    )
    watch.add_argument("--poll", type=float, default=1.0, help="poll interval [s]")
    watch.add_argument(
        "--settle", type=float, default=1.0, help="mtime settle time [s]"
    )
    watch.add_argument(
        "--stable-polls",
        type=int,
        default=2,
        help="scans a file's size must hold still",
    )
    watch.add_argument("--queue-capacity", type=int, default=64)
    watch.add_argument("--max-retries", type=int, default=3)
    watch.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="files between checkpoints (0 disables checkpointing)",
    )
    watch.add_argument("--events", default=None, help="event log path (JSONL)")
    watch.add_argument(
        "--detector", choices=DETECTORS, default="local_similarity"
    )
    watch.add_argument(
        "--band",
        type=float,
        nargs=2,
        default=(0.5, 12.0),
        metavar=("LO", "HI"),
        help="bandpass corner frequencies [Hz]",
    )
    watch.add_argument(
        "--no-band", action="store_true", help="feed the detector raw samples"
    )
    watch.add_argument("--half-window", type=int, default=25, help="M")
    watch.add_argument("--channel-offset", type=int, default=1, help="K")
    watch.add_argument("--half-lag", type=int, default=5, help="L")
    watch.add_argument("--stride", type=int, default=25)
    watch.add_argument("--nsta", type=int, default=25)
    watch.add_argument("--nlta", type=int, default=250)
    watch.add_argument("--threshold", type=float, default=0.5)
    watch.add_argument("--min-fraction", type=float, default=0.3)
    watch.add_argument("--quiet", action="store_true")
    watch.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run N supervised shards over <spool>/shard-<i> "
        "subdirectories and merge their catalogs (drain semantics)",
    )
    watch.add_argument(
        "--channel-stride",
        type=int,
        default=0,
        help="channel offset between consecutive shards' interrogators "
        "(rebases merged events; 0 = no rebase)",
    )
    watch.add_argument(
        "--health",
        default=None,
        help="supervisor health file path "
        f"(default <spool>/{HEALTH_NAME})",
    )

    status = sub.add_parser("status", help="inspect a spool's log/quarantine")
    status.add_argument("spool")
    status.add_argument("--events", default=None)
    return parser


def _detector_from_args(args: argparse.Namespace) -> DetectorConfig:
    return DetectorConfig(
        detector=args.detector,
        band=None if args.no_band else tuple(args.band),
        similarity=LocalSimilarityConfig(
            half_window=args.half_window,
            channel_offset=args.channel_offset,
            half_lag=args.half_lag,
            stride=args.stride,
        ),
        nsta=args.nsta,
        nlta=args.nlta,
    )


def _policy_from_args(args: argparse.Namespace) -> EventPolicy:
    return EventPolicy(
        threshold=args.threshold, min_fraction=args.min_fraction
    )


def _config_from_args(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        poll_interval=args.poll,
        settle_seconds=args.settle,
        stable_polls=args.stable_polls,
        queue_capacity=args.queue_capacity,
        max_retries=args.max_retries,
        checkpoint_every=args.checkpoint_every,
    )


def _service_from_args(args: argparse.Namespace) -> RTService:
    detector = _detector_from_args(args)
    policy = _policy_from_args(args)
    config = _config_from_args(args)
    on_event = None
    if not args.quiet:

        def on_event(seam_event):
            event = seam_event.event
            print(
                f"event #{event.label} {event.kind}: "
                f"channels [{event.channel_lo}, {event.channel_hi}]  "
                f"t [{event.t_start:.2f}, {event.t_end:.2f}] s  "
                f"peak {event.peak_similarity:.3f}",
                flush=True,
            )

    return RTService(
        args.spool,
        detector=detector,
        policy=policy,
        config=config,
        events_path=args.events,
        on_event=on_event,
    )


def cmd_watch_sharded(args: argparse.Namespace) -> int:
    """Supervised sharded drain over ``<spool>/shard-<i>`` directories.

    Each shard gets its own simmpi rank, heartbeat supervision, and
    checkpoint-resume restarts; durable state lives under
    ``<spool>/state/shard-<i>`` so a vanished interrogator volume
    cannot take its recovery state with it.
    """
    if args.shards < 1:
        raise ConfigError("--shards must be >= 1")
    specs = []
    for shard in range(args.shards):
        spool = os.path.join(args.spool, f"shard-{shard}")
        if not os.path.isdir(spool):
            raise ConfigError(f"shard spool missing: {spool}")
        expected = sum(map(is_acquisition_file, os.listdir(spool)))
        specs.append(
            ShardSpec(
                shard_id=shard,
                spool=spool,
                state_dir=os.path.join(
                    args.spool, "state", f"shard-{shard}"
                ),
                channel_base=shard * args.channel_stride,
                expected_files=expected,
            )
        )
    options = ShardOptions(
        detector=_detector_from_args(args),
        event_policy=_policy_from_args(args),
        service_config=_config_from_args(args),
    )
    health_path = args.health or os.path.join(args.spool, HEALTH_NAME)
    result = run_sharded(
        specs,
        options=options,
        supervisor=SupervisorConfig(),
        health_path=health_path,
    )
    summary = {
        "shards": args.shards,
        "events": result["events"],
        "duplicates_dropped": result["duplicates"],
        "restarts": result["restarts"],
        "health": health_path,
        "per_shard": {
            str(shard): {
                "ingested": shard_result["ingested"],
                "events": shard_result["events"],
                "restarts": shard_result["restarts"],
            }
            for shard, shard_result in result["shard_results"].items()
        },
    }
    if not args.quiet:
        print(json.dumps(summary, indent=2))
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    if args.shards is not None:
        return cmd_watch_sharded(args)
    service = _service_from_args(args)
    stopping = {"flag": False}

    def request_stop(signum, frame):
        stopping["flag"] = True

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, request_stop)
        except (ValueError, OSError):
            # Signal handlers are a best-effort nicety: off the main
            # thread (tests) or on unsupported platforms the service
            # simply runs without graceful-stop support.
            pass  # noqa: TAX003 - graceful stop is optional; watch loop still honours stop_check/max_ticks
    try:
        if args.drain:
            service.drain()
            service.flush()
        else:
            service.run(
                stop_check=lambda: stopping["flag"], max_ticks=args.max_ticks
            )
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if not args.quiet:
        print(service.metrics.report())
    return 0


def _shard_health(path: str) -> dict:
    """Each shard's state and counters from the supervisor's health file,
    which writes all four: a file that does not parse, or a shard entry
    without one of them, is :class:`CorruptDataError`."""
    keys = ("state", "ingested", "events", "restarts")
    try:
        with open(path, encoding="utf-8") as handle:
            shards = json.load(handle)["shards"]
        return {
            shard: {key: info[key] for key in keys}
            for shard, info in sorted(shards.items())
        }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptDataError(
            path, reason=f"malformed health file ({type(exc).__name__}: {exc})"
        ) from exc


def cmd_status(args: argparse.Namespace) -> int:
    events_path = (
        args.events
        if args.events is not None
        else os.path.join(args.spool, EVENTS_NAME)
    )
    records, _ = read_event_log(events_path)
    quarantine = Quarantine(args.spool)
    report = {
        "spool": args.spool,
        "events": len(records),
        "kinds": sorted({e.event.kind for _, e in records}),
        "quarantined": sorted(quarantine.reasons),
    }
    health_path = os.path.join(args.spool, HEALTH_NAME)
    if os.path.exists(health_path):
        report["shards"] = _shard_health(health_path)
    print(json.dumps(report, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = cmd_watch if args.command == "watch" else cmd_status
    return run_cli(parser.prog, command, args)


if __name__ == "__main__":
    sys.exit(main())
