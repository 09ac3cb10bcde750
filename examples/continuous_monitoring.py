#!/usr/bin/env python
"""Continuous monitoring: a live spool, a running service, streamed events.

Emulates a sensor that never stops: synthetic per-minute files are
drip-fed into a spool directory (atomic rename, like a real acquisition
daemon) while the :class:`repro.rt.RTService` watches it — each file is
detected once complete, pushed through the incremental detector chain
with carried state threading the filter/window halo across file seams,
and events land in ``events.jsonl`` as they are finalised.  At the end
the streamed event log is checked against one batch run over the
concatenated record: identical.  The spool is a temporary directory,
removed when the example exits.

Run:  python examples/continuous_monitoring.py
"""

import tempfile

import numpy as np

from repro.core.local_similarity import (
    LocalSimilarityConfig,
    local_similarity_block,
)
from repro.daslib import butter, filtfilt
from repro.rt import (
    DetectorConfig,
    EventPolicy,
    RTService,
    ServiceConfig,
    map_events,
)
from repro.synthetic import drip_feed_dataset, fig1b_scene, synthesize_scene

FS = 50.0
CHANNELS = 96
MINUTES = 6
SPM = 600  # 12 s per "minute" file keeps the demo quick


def monitor(spool: str) -> None:
    scene = fig1b_scene(
        n_channels=CHANNELS, fs=FS, minutes=MINUTES, samples_per_minute=SPM
    )
    similarity = LocalSimilarityConfig(
        half_window=25, channel_offset=1, half_lag=5, stride=25
    )
    detector = DetectorConfig(band=(0.5, 12.0), similarity=similarity)
    policy = EventPolicy(threshold=0.4, min_fraction=0.25)
    config = ServiceConfig(
        poll_interval=0.0, settle_seconds=0.0, stable_polls=1
    )

    print(f"spool: {spool}")

    def announce(seam_event):
        event = seam_event.event
        print(
            f"  event #{event.label} {event.kind}: channels "
            f"[{event.channel_lo}, {event.channel_hi}], "
            f"t [{event.t_start:.1f}, {event.t_end:.1f}] s"
        )

    service = RTService(
        spool,
        detector=detector,
        policy=policy,
        config=config,
        on_event=announce,
    )
    print(f"drip-feeding {MINUTES} files while the service watches ...")
    for path in drip_feed_dataset(
        spool, MINUTES, scene=scene, samples_per_minute=SPM
    ):
        print(f"file landed: {path.rsplit('/', 1)[-1]}")
        service.drain()
    service.flush()  # acquisition over: clamp the edge, close open runs

    streamed = service.sink.load()
    print(f"\n{len(streamed)} events in {service.sink.path}")
    print(service.metrics.report())

    # The punchline: one batch pass over the concatenated record finds
    # the *same* events — nothing dropped or doubled at file seams.
    data = synthesize_scene(scene, MINUTES, samples_per_minute=SPM).astype(
        np.float64
    )
    b, a = butter(4, (0.5, 12.0), "bandpass", fs=FS)
    sim_map, centers = local_similarity_block(
        filtfilt(b, a, data, axis=-1), similarity
    )
    batch = map_events(
        sim_map, centers, FS, policy, n_channels=CHANNELS, channel_lo=1
    )
    spans = lambda events: [(e.j_start, e.j_end, e.event.kind) for e in events]
    assert spans(streamed) == spans(batch), "seam equivalence violated"
    print(
        f"\nbatch run over the concatenated record: {len(batch)} events — "
        "identical to the streamed log (seam equivalence holds)"
    )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="das-spool-") as spool:
        monitor(spool)


if __name__ == "__main__":
    main()
