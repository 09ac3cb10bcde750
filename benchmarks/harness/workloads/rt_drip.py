"""``rt_drip`` — the monitoring service fed one file at a time.

Staged per-minute files are hard-linked one by one into a fresh spool; after
each link the :class:`~repro.rt.RTService` (default ``checkpoint_every=1``)
drains, and the replay ends with ``flush()``.  Latency is link -> ``drain``
return.  The operators are ``batch_detect``'s, but they run through the
incremental executor and every file pays the fixed costs batch never does:
open, catalog refresh, fsync'd event sink and checkpoint.  The replay is
back to back because at the real one file per minute the service is idle.
"""

from __future__ import annotations

import os

from repro.core.local_similarity import LocalSimilarityConfig, local_similarity_block
from repro.daslib import butter, filtfilt
from repro.rt import (
    DetectorConfig,
    EventPolicy,
    RTService,
    ServiceConfig,
    ShardOptions,
    ShardSpec,
    map_events,
    run_sharded,
)

import probes
from common import fresh_dir, median, tree_bytes
from workloads import (
    BaseSession,
    OpClock,
    PassResult,
    base_manifest,
    read_whole,
    synthesize,
    write_minutes,
)

NAME = "rt_drip"
BAND = (0.5, 12.0)
SIMILARITY = LocalSimilarityConfig(
    half_window=25, channel_offset=1, half_lag=5, stride=25
)
DETECTOR = DetectorConfig(band=BAND, similarity=SIMILARITY)
#: Low thresholds make the synthetic scene trigger (vehicles, the arrival).
POLICY = EventPolicy(threshold=0.4, min_fraction=0.25)
#: A drained spool is quiet immediately: no settle wait, no poll sleep.
SERVICE = ServiceConfig(poll_interval=0.0, settle_seconds=0.0, stable_polls=1)
SCORE_TOLERANCE = 1e-6
#: Files per spool in the fault-free two-shard replay (traced run only).
SHARD_FILES = 20


def setup(seed: int, params: dict, root: str) -> dict:
    data, gen_s = synthesize(seed, params)
    manifest = base_manifest(NAME, params, data, gen_s)
    paths = write_minutes(os.path.join(root, "stage"), data, params)
    manifest.update(root=root, stage=os.path.join(root, "stage"), paths=paths)
    return manifest


def _signature(events) -> list[tuple]:
    return [(e.j_start, e.j_end, e.event.kind) for e in events]


def _link(path: str, spool: str) -> None:
    """The file "arrives": linked into the spool with its mtime set to now,
    so the service's ingest lag measures this replay, not the staging."""
    arrived = os.path.join(spool, os.path.basename(path))
    os.link(path, arrived)
    os.utime(arrived)


class Session(BaseSession):
    def _spool(self) -> str:
        return os.path.join(self.m["root"], "spool")

    def stored_bytes(self) -> int:
        """The staged files plus the service's own state (event log,
        checkpoint, catalog); the spool's data files are hard links."""
        state = sum(
            os.path.getsize(os.path.join(self._spool(), name))
            for name in os.listdir(self._spool())
            if not name.endswith(".h5")
        )
        return tree_bytes(self.m["stage"]) + state

    def run_pass(self, tr) -> PassResult:
        spool = fresh_dir(self._spool())
        service = RTService(spool, detector=DETECTOR, policy=POLICY, config=SERVICE)
        if tr.enabled:
            # tick() calls the instance attribute, so checkpoints become
            # child spans of the drain that triggered them
            service.save_checkpoint = tr.wrap(
                service.save_checkpoint, "RTService.save_checkpoint", "rt"
            )
        clock = OpClock(tr)
        overheads = []
        total = service.metrics.stage("total")
        for path in self.m["paths"]:
            with clock.op("file"):
                _link(path, spool)
                staged_before = total.total
                with tr.span("RTService.drain", "rt", composite=True) as span:
                    done = service.drain()
            if span is not None:
                span.explained_s = total.total - staged_before
                overheads.append(span.duration - span.explained_s)
            if done != 1:
                clock.ops[-1].ok = False
        with tr.span("RTService.flush", "rt"):
            service.flush()
        result = clock.finish()

        events = service.sink.load()
        signature = _signature(events)
        self.last = {"signature": signature, "metrics": service.metrics.snapshot()}
        result.outputs = {
            "signature": signature,
            "scores": [e.event.peak_similarity for e in events],
            "tick_overheads": overheads,
        }
        return result

    def corrupt(self) -> None:
        self.last["signature"].append((-1, -1, "injected"))

    def verify(self, passes: list[PassResult]) -> None:
        """Seam equivalence: each replay's event log against one batch
        ``map_events`` pass over the concatenated record."""
        whole = read_whole(self.m["paths"])
        fs = self.p["fs"]
        b, a = butter(DETECTOR.filter_order, BAND, "bandpass", fs=fs)
        similarity, centers = local_similarity_block(
            filtfilt(b, a, whole, axis=-1), SIMILARITY
        )
        batch = map_events(
            similarity, centers, fs, POLICY,
            n_channels=self.p["channels"], channel_lo=DETECTOR.channel_lo,
        )
        expected = _signature(batch)
        scores = [e.event.peak_similarity for e in batch]
        for result in passes:
            got = result.outputs["signature"]
            wrong = len(set(got) ^ set(expected))
            if got == expected:
                wrong = sum(
                    abs(x - y) >= SCORE_TOLERANCE
                    for x, y in zip(result.outputs["scores"], scores)
                )
            # an event log that differs in k events fails k files
            for op in result.ops[:wrong]:
                op.ok = False

    def layer_metrics(self, tr, result: PassResult) -> dict:
        speed = result.speed  # raw span/stage seconds -> reference speed
        snap = self.last["metrics"]

        def stage_ms(name: str) -> float:
            return (snap["stages"].get(name, {}).get("p50_s") or 0.0) * speed * 1e3

        checkpoints = [s.duration for s in tr.named("RTService.save_checkpoint")]
        metrics = {
            "rt.read_p50_ms": stage_ms("read"),
            "rt.pipeline_p50_ms": stage_ms("pipeline"),
            "rt.events_p50_ms": stage_ms("events"),
            "rt.stage_total_p50_ms": stage_ms("total"),
            "rt.ingest_lag_p50_ms": (snap["ingest_lag"]["p50_s"] or 0.0) * speed * 1e3,
            "rt.events_emitted": snap["events_emitted"],
            "rt.quarantined": snap["files_quarantined"],
            "rt.tick_overhead_ms": median(result.outputs["tick_overheads"]) * speed * 1e3,
            "rt.checkpoint_ms": median(checkpoints) * speed * 1e3,
        }
        metrics.update(self._sharded())
        return metrics

    def _sharded(self) -> dict:
        """One fault-free ``run_sharded`` replay of two pre-filled spools.
        Ranks are GIL-bound threads, so the rate is indicative only."""
        root = fresh_dir(os.path.join(self.m["root"], "sharded"))
        per_shard = min(SHARD_FILES, len(self.m["paths"]) // 2)
        specs = []
        for shard in range(2):
            spool = os.path.join(root, f"spool-{shard}")
            state = os.path.join(root, f"state-{shard}")
            os.makedirs(spool)
            os.makedirs(state)
            for path in self.m["paths"][shard * per_shard : (shard + 1) * per_shard]:
                _link(path, spool)
            specs.append(ShardSpec(
                shard_id=shard, spool=spool, state_dir=state,
                channel_base=shard * self.p["channels"], expected_files=per_shard,
            ))
        options = ShardOptions(
            detector=DETECTOR, event_policy=POLICY, service_config=SERVICE,
            idle_sleep=0.001,
        )
        merged = []
        seconds = probes.timed(
            lambda: merged.append(run_sharded(specs, options=options)), repeats=1
        )
        return {
            "rt.sharded_files_per_s": 2 * per_shard / seconds,
            "rt.sharded_duplicates": merged[-1]["duplicates"],
        }
