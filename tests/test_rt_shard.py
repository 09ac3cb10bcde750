"""Sharded RT monitoring: heartbeat state machine, idempotent catalog
aggregation, dead-rank fabric hooks, and the chaos-matrix invariant —
for every fault kind applied to a shard at a seeded point, the
recovered merged catalog equals the fault-free reference."""

import os
from functools import partial

import pytest

from repro.core.detection import DetectedEvent
from repro.core.local_similarity import LocalSimilarityConfig
from repro.errors import (
    ConfigError,
    InjectedFaultError,
    MPIError,
)
from repro.faults.chaos import ChaosAction, ChaosSchedule
from repro.faults.policy import FailurePolicy
from repro.rt import (
    CatalogAggregator,
    DetectorConfig,
    EventPolicy,
    HeartbeatConfig,
    HeartbeatMonitor,
    RTService,
    SeamEvent,
    ServiceConfig,
    ShardOptions,
    ShardSpec,
    SupervisorConfig,
    catalog_signature,
    run_sharded,
)
from repro.rt.events import read_event_log
from repro.simmpi.fabric import Fabric, Message
from repro.synthetic.generator import drip_feed_dataset, fig1b_scene

FS = 50.0
CHANNELS = 48
MINUTES = 4
SPM = 600

SIM = LocalSimilarityConfig(
    half_window=25, channel_offset=1, half_lag=5, stride=25
)
DETECTOR = DetectorConfig(band=(0.5, 12.0), similarity=SIM)
POLICY = EventPolicy(threshold=0.4, min_fraction=0.25)
# queue_capacity=1 forces one file per tick, so checkpoint_every=1
# yields one checkpoint generation per file — the multi-generation
# history the torn-checkpoint fault needs.
SHARD_CONFIG = ServiceConfig(
    poll_interval=0.0,
    settle_seconds=0.0,
    stable_polls=1,
    checkpoint_every=1,
    max_retries=2,
    queue_capacity=1,
)
HB = HeartbeatConfig(
    interval=0.01, suspect_after=0.1, dead_after=0.3, restart_grace=10.0
)
SUPERVISOR = SupervisorConfig(
    heartbeat=HB, max_restarts=3, poll_sleep=0.002, wall_timeout=60.0
)
OPTIONS = ShardOptions(
    detector=DETECTOR,
    event_policy=POLICY,
    service_config=SHARD_CONFIG,
    restart_policy=FailurePolicy(retries=6, backoff=0.005),
    idle_sleep=0.001,
)


CLI_WATCH_SHARDS = [
    "--shards", "2", "--channel-stride", str(CHANNELS),
    "--poll", "0", "--settle", "0", "--stable-polls", "1",
    "--threshold", "0.4", "--min-fraction", "0.25",
    "--half-window", "25", "--half-lag", "5", "--stride", "25",
]


@pytest.fixture
def short_wall(monkeypatch):
    """The sharded CLI under a 5 s wall timeout instead of the default
    600 s, so a shard that never completes fails the test in seconds."""
    from repro.rt import cli

    monkeypatch.setattr(
        cli, "SupervisorConfig", partial(SupervisorConfig, wall_timeout=5.0)
    )


def _cli_shard_root(tmp_path):
    """``<root>/shard-0`` and ``shard-1``, two minute-files each."""
    root = tmp_path / "root"
    for shard in range(2):
        scene = fig1b_scene(
            n_channels=CHANNELS, fs=FS, minutes=2,
            samples_per_minute=SPM, seed=7 + shard,
        )
        spool = root / f"shard-{shard}"
        spool.mkdir(parents=True)
        list(drip_feed_dataset(spool, 2, scene=scene, samples_per_minute=SPM))
    return root


def _event(j_start=0, j_end=3, lo=1, hi=5):
    return SeamEvent(
        DetectedEvent(
            label=1,
            kind="vehicle",
            channel_lo=lo,
            channel_hi=hi,
            t_start=0.5,
            t_end=1.5,
            peak_similarity=0.9,
            n_cells=10,
            speed_channels_per_s=2.0,
        ),
        j_start,
        j_end,
    )


class TestHeartbeatMonitor:
    def test_alive_suspect_dead_progression(self):
        monitor = HeartbeatMonitor(HB, [0], now=0.0)
        monitor.beat(0, incarnation=0, now=0.0)
        assert monitor.poll(0.05) == []
        assert monitor.state(0) == "alive"
        assert monitor.poll(0.15) == []
        assert monitor.state(0) == "suspect"
        assert monitor.poll(0.35) == [0]
        assert monitor.state(0) == "dead"
        # Reported exactly once.
        assert monitor.poll(0.5) == []

    def test_beat_revives_suspect_but_not_dead(self):
        monitor = HeartbeatMonitor(HB, [0], now=0.0)
        monitor.poll(0.2)
        assert monitor.state(0) == "suspect"
        monitor.beat(0, incarnation=-1, now=0.21)
        assert monitor.state(0) == "alive"
        monitor.poll(1.0)
        assert monitor.state(0) == "dead"
        # Zombie fencing: a same-incarnation beat after death is the old
        # process talking; it must not cancel the replacement.
        monitor.beat(0, incarnation=-1, now=1.01)
        assert monitor.state(0) == "dead"
        # The new incarnation revives.
        monitor.beat(0, incarnation=0, now=1.02)
        assert monitor.state(0) == "alive"

    def test_restart_grace_expires_back_to_dead(self):
        monitor = HeartbeatMonitor(HB, [0, 1], now=0.0)
        monitor.poll(1.0)
        monitor.mark_restarting(0, now=1.0)
        assert monitor.poll(1.5) == []  # still within grace (and shard 1
        assert monitor.state(1) == "dead"  # already reported at 1.0)
        assert monitor.poll(1.0 + HB.restart_grace + 0.1) == [0]

    def test_stopped_shards_are_exempt(self):
        monitor = HeartbeatMonitor(HB, [0], now=0.0)
        monitor.mark_stopped(0)
        assert monitor.poll(100.0) == []
        assert monitor.state(0) == "stopped"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            HeartbeatConfig(interval=0.5, suspect_after=0.2, dead_after=0.6)
        with pytest.raises(ConfigError):
            HeartbeatMonitor(HB, [])


class TestCatalogAggregator:
    def test_idempotent_apply_and_rebase(self):
        agg = CatalogAggregator({0: 0, 1: CHANNELS})
        event = _event()
        assert agg.apply(1, [("rec", event)]) == 1
        # The same (shard, record, span) row replayed is a duplicate.
        assert agg.apply(1, [("rec", event)]) == 0
        assert agg.duplicates == 1
        # Same span from another shard is a distinct catalog row.
        assert agg.apply(0, [("rec", event)]) == 1
        rows = agg.read()
        assert len(rows) == 2
        by_shard = {shard: ev for shard, _, ev in rows}
        assert by_shard[0].event.channel_lo == 1
        assert by_shard[1].event.channel_lo == 1 + CHANNELS
        assert by_shard[1].event.channel_hi == 5 + CHANNELS

    def test_signature_ignores_labels(self):
        a = _event()
        b = SeamEvent(
            DetectedEvent(
                label=99,  # only the label differs
                kind=a.event.kind,
                channel_lo=a.event.channel_lo,
                channel_hi=a.event.channel_hi,
                t_start=a.event.t_start,
                t_end=a.event.t_end,
                peak_similarity=a.event.peak_similarity,
                n_cells=a.event.n_cells,
                speed_channels_per_s=a.event.speed_channels_per_s,
            ),
            a.j_start,
            a.j_end,
        )
        assert catalog_signature([(0, "r", a)]) == catalog_signature(
            [(0, "r", b)]
        )


class TestFabricDeadRanks:
    def test_posts_to_failed_rank_are_dropped(self):
        fabric = Fabric(2)
        fabric.fail_rank(1)
        fabric.post(1, Message(source=0, tag=7, payload="x", nbytes=1,
                               send_time=0.0))
        assert fabric._mailboxes[1] == []
        with pytest.raises(MPIError, match="failed"):
            fabric.match_nowait(1, 0, 7)

    def test_restore_clears_mailbox_and_reenables(self):
        fabric = Fabric(2)
        fabric.post(1, Message(source=0, tag=7, payload="stale", nbytes=1,
                               send_time=0.0))
        fabric.fail_rank(1)
        fabric.restore_rank(1)
        assert not fabric.is_failed(1)
        assert fabric.match_nowait(1, 0, 7) is None  # purged, not replayed
        fabric.post(1, Message(source=0, tag=7, payload="fresh", nbytes=1,
                               send_time=0.0))
        assert fabric.match_nowait(1, 0, 7).payload == "fresh"


class TestChaosSchedule:
    def test_seeded_schedules_are_reproducible(self):
        a = ChaosSchedule.generate(seed=5, n_shards=4, files_per_shard=6)
        b = ChaosSchedule.generate(seed=5, n_shards=4, files_per_shard=6)
        assert a.actions == b.actions
        assert all(1 <= act.at_file < 6 for act in a.actions)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ChaosAction("no-such-kind", shard=0, at_file=1)
        with pytest.raises(ConfigError):
            ChaosAction("hang", shard=0, at_file=0)
        with pytest.raises(ConfigError):
            ChaosSchedule.generate(seed=0, n_shards=2, files_per_shard=1)


# ---------------------------------------------------------------------------
# integration: the chaos invariant
# ---------------------------------------------------------------------------

def _make_spools(root, n_shards):
    """Pre-land identical minute files in per-shard spool + ref dirs."""
    specs, refs = [], []
    for shard in range(n_shards):
        scene = fig1b_scene(
            n_channels=CHANNELS, fs=FS, minutes=MINUTES,
            samples_per_minute=SPM, seed=7 + shard,
        )
        spool = root / f"spool-{shard}"
        ref = root / f"ref-{shard}"
        state = root / "state" / f"shard-{shard}"
        spool.mkdir(parents=True)
        ref.mkdir(parents=True)
        state.mkdir(parents=True)
        for directory in (spool, ref):
            list(drip_feed_dataset(
                directory, MINUTES, scene=scene, samples_per_minute=SPM
            ))
        specs.append(ShardSpec(
            shard_id=shard,
            spool=str(spool),
            state_dir=str(state),
            channel_base=shard * CHANNELS,
            expected_files=MINUTES,
        ))
        refs.append(str(ref))
    return specs, refs


def _reference_signature(specs, refs):
    """The fault-free batch catalog: one plain RTService per spool."""
    rows = []
    for spec, ref in zip(specs, refs):
        service = RTService(
            ref, detector=DETECTOR, policy=POLICY, config=SHARD_CONFIG
        )
        service.drain()
        service.flush()
        for record, event in read_event_log(service.sink.path)[0]:
            rows.append(
                (spec.shard_id, record, event.rebased(spec.channel_base))
            )
    return catalog_signature(rows)


@pytest.fixture(scope="module")
def sharded_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("sharded")
    specs, refs = _make_spools(root, n_shards=2)
    expected = _reference_signature(specs, refs)
    assert expected, "reference catalog must not be empty"
    return root, specs, expected


def _fresh_state(specs, tag):
    """Chaos runs mutate spools/state; give each case its own state dirs
    and verify the spools were restored by the previous case."""
    fresh = []
    for spec in specs:
        assert os.path.isdir(spec.spool), "spool must be restored"
        state = os.path.join(
            os.path.dirname(spec.state_dir), f"{tag}-{spec.shard_id}"
        )
        os.makedirs(state, exist_ok=True)
        fresh.append(ShardSpec(
            shard_id=spec.shard_id,
            spool=spec.spool,
            state_dir=state,
            channel_base=spec.channel_base,
            expected_files=spec.expected_files,
        ))
    return fresh


class TestShardedRuns:
    def test_fault_free_run_matches_reference(self, sharded_setup):
        _, specs, expected = sharded_setup
        result = run_sharded(
            _fresh_state(specs, "clean"),
            options=OPTIONS,
            supervisor=SUPERVISOR,
        )
        assert result["signature"] == expected
        assert result["duplicates"] == 0
        assert result["restarts"] == {0: 0, 1: 0}

    @pytest.mark.parametrize(
        "kind", ["kill-at-file", "hang", "torn-checkpoint", "spool-vanish"]
    )
    def test_chaos_invariant_single_shard_fault(self, sharded_setup, kind):
        _, specs, expected = sharded_setup
        # Shard 1's scene finalizes its first events after tick 3, so a
        # fault at file 4 guarantees rows were forwarded before the
        # crash — the replay after restart must then be deduplicated.
        chaos = ChaosSchedule.single(kind, shard=1, at_file=MINUTES,
                                     down_ticks=2)
        result = run_sharded(
            _fresh_state(specs, kind),
            options=OPTIONS,
            supervisor=SUPERVISOR,
            chaos=chaos,
        )
        # The invariant: recovered merged catalog == fault-free batch
        # reference, event for event, no duplicates in the merge.
        assert result["signature"] == expected
        assert result["restarts"][1] >= 1
        assert result["restarts"][0] == 0
        assert result["recovery_s"][1], "recovery time must be measured"
        shard1 = result["shard_results"][1]
        assert shard1["chaos_fired"] == [kind]
        # Idempotent re-ingestion actually happened: the restarted shard
        # replayed its log and the aggregator dropped the replays.
        assert result["duplicates"] > 0
        if kind == "torn-checkpoint":
            assert shard1["checkpoint_fallbacks"], (
                "torn primary checkpoint must be detected and fall back"
            )

    def test_health_file_written(self, sharded_setup, tmp_path):
        import json

        _, specs, expected = sharded_setup
        health_path = str(tmp_path / "health.json")
        result = run_sharded(
            _fresh_state(specs, "health"),
            options=OPTIONS,
            supervisor=SUPERVISOR,
            health_path=health_path,
        )
        assert result["signature"] == expected
        with open(health_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert set(payload["shards"]) == {"0", "1"}
        for shard in payload["shards"].values():
            assert shard["state"] == "stopped"
            assert shard["ingested"] == MINUTES

    def test_cli_watch_shards_and_status(self, tmp_path, capsys, short_wall):
        import json

        from repro.rt.cli import main as rt_main

        root = _cli_shard_root(tmp_path)
        code = rt_main(["watch", str(root), *CLI_WATCH_SHARDS])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["shards"] == 2
        assert summary["per_shard"]["0"]["ingested"] == 2
        assert summary["per_shard"]["1"]["ingested"] == 2
        assert summary["restarts"] == {"0": 0, "1": 0}  # json keys

        code = rt_main(["status", str(root)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["shards"]) == {"0", "1"}
        assert all(s["state"] == "stopped"
                   for s in report["shards"].values())

    def test_cli_shards_expect_only_files_the_watcher_ingests(
        self, tmp_path, capsys, short_wall
    ):
        """A ``.hdf5`` name and a dot-file sit in the spools but are not
        acquisition files: counting them, a shard would wait for them
        until the wall timeout and the command would exit 2."""
        import json

        from repro.rt.cli import main as rt_main

        root = _cli_shard_root(tmp_path)
        (root / "shard-0" / "westSac_170620100745.hdf5").write_bytes(b"stray")
        (root / "shard-1" / ".westSac_170620100745.h5").write_bytes(b"partial")
        code = rt_main(["watch", str(root), *CLI_WATCH_SHARDS])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["per_shard"]["0"]["ingested"] == 2
        assert summary["per_shard"]["1"]["ingested"] == 2

    def test_shard_chaos_kill_raises_injected_fault(self, tmp_path):
        # The on_file hook fires the action exactly once.
        from repro.rt.shard import ShardChaos

        spec = ShardSpec(shard_id=0, spool=str(tmp_path),
                         state_dir=str(tmp_path))
        chaos = ShardChaos(
            spec, [ChaosAction("kill-at-file", shard=0, at_file=2)]
        )
        chaos.on_file("a")
        with pytest.raises(InjectedFaultError, match="kill-at-file"):
            chaos.on_file("b")
        chaos.on_file("c")  # fired once, never again
        assert [a.kind for a in chaos.fired] == ["kill-at-file"]
