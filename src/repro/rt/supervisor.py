"""Shard supervision: failure detection, restart, and catalog merge.

Rank 0 of a sharded RT run is the supervisor.  It owns three pieces:

* :class:`HeartbeatMonitor` — a pure, injectable-clock state machine
  per shard: ``alive`` → (missed deadline) → ``suspect`` → (longer
  miss) → ``dead``.  A beat with a *higher incarnation* revives any
  state; a same-incarnation beat only revives ``suspect`` (a dead
  shard must come back as a new incarnation — fencing against a zombie
  process beating after its replacement started).
* :class:`CatalogAggregator` — the merged event catalog.  Ingestion is
  idempotent on ``(shard, record, j_start, j_end)`` — a restarted
  shard replays its whole local log and every already-applied row is
  counted as a duplicate, not double-counted.
* :func:`supervisor_main` — the polling loop: drain events and beats,
  drive the monitor, command restarts (restoring the failed rank on
  the fabric first), publish per-shard health to an atomic JSON file,
  stop everyone once all shards report complete, and return the merged
  catalog plus recovery timings.

:func:`run_sharded` is the one-call driver: it lays supervisor + N
shards onto ``simmpi`` ranks via ``run_spmd`` and returns the
supervisor's result.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.errors import ConfigError, MPIError
from repro.faults.chaos import ChaosSchedule
from repro.rt.events import SeamEvent
from repro.rt.shard import (
    SUPERVISOR_RANK,
    TAG_COMMAND,
    TAG_EVENTS,
    TAG_HEARTBEAT,
    ShardOptions,
    ShardSpec,
    shard_main,
)
from repro.simmpi.executor import run_spmd
from repro.simmpi.fabric import ANY_SOURCE
from repro.utils.durable import publish

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "RESTARTING",
    "STOPPED",
    "HeartbeatConfig",
    "HeartbeatMonitor",
    "CatalogAggregator",
    "catalog_signature",
    "SupervisorConfig",
    "supervisor_main",
    "run_sharded",
    "HEALTH_NAME",
]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
RESTARTING = "restarting"
STOPPED = "stopped"

HEALTH_NAME = ".das_shard_health.json"


@dataclass(frozen=True)
class HeartbeatConfig:
    """Deadlines of the failure detector (seconds of silence).

    ``suspect_after``/``dead_after`` are measured from the last beat;
    ``restart_grace`` bounds how long a commanded restart may take
    before the shard is declared dead *again* (and restarted again, up
    to the supervisor's ``max_restarts``).

    Defaults are sized for real minute-file workloads: shards beat
    after every processed file, so the silent window of a *healthy*
    shard is one file's processing time — ``dead_after`` must exceed
    the worst single-file cost or busy shards get restart-thrashed.
    Tests pass much tighter deadlines explicitly.
    """

    interval: float = 0.05
    suspect_after: float = 10.0
    dead_after: float = 30.0
    restart_grace: float = 30.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigError("heartbeat interval must be > 0")
        if not self.interval <= self.suspect_after < self.dead_after:
            raise ConfigError(
                "need interval <= suspect_after < dead_after "
                f"(got {self.interval}, {self.suspect_after}, {self.dead_after})"
            )
        if self.restart_grace <= 0:
            raise ConfigError("restart_grace must be > 0")


class HeartbeatMonitor:
    """Missed-deadline failure detection, one state machine per shard.

    Pure and clock-injected: every transition is driven by explicit
    ``now`` values, so the whole machine is unit-testable without
    sleeping.  :meth:`poll` returns the shards that *newly* became dead
    — the supervisor acts exactly once per death.
    """

    def __init__(self, config: HeartbeatConfig, shards, now: float = 0.0):
        self.config = config
        shards = list(shards)
        if not shards:
            raise ConfigError("monitor needs at least one shard")
        self._last: dict[int, float] = {s: float(now) for s in shards}
        self._incarnation: dict[int, int] = {s: -1 for s in shards}
        self._state: dict[int, str] = {s: ALIVE for s in shards}
        self._marked: dict[int, float] = {}

    def _known(self, shard: int) -> None:
        if shard not in self._state:
            raise ConfigError(f"unknown shard {shard}")

    def beat(self, shard: int, incarnation: int, now: float) -> str:
        """Apply one heartbeat; returns the resulting state."""
        self._known(shard)
        state = self._state[shard]
        if state == STOPPED:
            return state
        if incarnation > self._incarnation[shard]:
            # A new incarnation revives anything — this is the restarted
            # process announcing itself.
            self._incarnation[shard] = int(incarnation)
            self._last[shard] = float(now)
            self._state[shard] = ALIVE
            self._marked.pop(shard, None)
        elif state in (ALIVE, SUSPECT):
            self._last[shard] = float(now)
            self._state[shard] = ALIVE
        # A same-incarnation beat while DEAD/RESTARTING is a zombie —
        # the supervisor already decided to replace this process; its
        # late beats must not cancel the restart (fencing).
        return self._state[shard]

    def mark_restarting(self, shard: int, now: float) -> None:
        self._known(shard)
        self._state[shard] = RESTARTING
        self._marked[shard] = float(now)

    def mark_stopped(self, shard: int) -> None:
        self._known(shard)
        self._state[shard] = STOPPED

    def poll(self, now: float) -> list[int]:
        """Advance deadlines; returns shards that just became dead."""
        newly_dead: list[int] = []
        for shard, state in self._state.items():
            if state in (DEAD, STOPPED):
                continue
            if state == RESTARTING:
                if now - self._marked[shard] >= self.config.restart_grace:
                    self._state[shard] = DEAD
                    newly_dead.append(shard)
                continue
            silence = now - self._last[shard]
            if silence >= self.config.dead_after:
                self._state[shard] = DEAD
                newly_dead.append(shard)
            elif silence >= self.config.suspect_after:
                self._state[shard] = SUSPECT
        return newly_dead

    def state(self, shard: int) -> str:
        self._known(shard)
        return self._state[shard]

    def states(self) -> dict[int, str]:
        return dict(self._state)

    def silence(self, shard: int, now: float) -> float:
        self._known(shard)
        return max(0.0, float(now) - self._last[shard])


class CatalogAggregator:
    """The merged multi-shard event catalog with idempotent ingestion.

    ``channel_bases`` maps shard id → first global channel it owns;
    events arrive in shard-local channel coordinates and are rebased on
    apply.  The idempotency key is ``(shard, record, j_start, j_end)``
    — deterministic for a given input stream, so a replayed row maps to
    the same key and is dropped as a duplicate.
    """

    def __init__(self, channel_bases: dict[int, int]):
        self._bases = {int(s): int(b) for s, b in channel_bases.items()}
        self._rows: dict[tuple, tuple[int, str, SeamEvent]] = {}
        self.duplicates = 0
        self.applied = 0

    def apply(self, shard: int, rows) -> int:
        """Merge ``[(record, SeamEvent), ...]`` from one shard; returns
        how many rows were new."""
        if shard not in self._bases:
            raise ConfigError(f"unknown shard {shard}")
        base = self._bases[shard]
        added = 0
        for record, event in rows:
            key = (shard, str(record), event.j_start, event.j_end)
            if key in self._rows:
                self.duplicates += 1
                continue
            self._rows[key] = (shard, str(record), event.rebased(base))
            added += 1
        self.applied += added
        return added

    def read(self) -> list[tuple[int, str, SeamEvent]]:
        """The merged catalog, canonically ordered."""
        return sorted(
            self._rows.values(),
            key=lambda row: (
                row[2].event.t_start,
                row[0],
                row[1],
                row[2].j_start,
                row[2].j_end,
            ),
        )

    def __len__(self) -> int:
        return len(self._rows)


def catalog_signature(rows) -> list[tuple]:
    """Order-independent, label-free identity of a merged catalog.

    ``rows`` is ``[(shard, record, SeamEvent), ...]``.  Labels are
    excluded (they number emission order, which replay may permute);
    everything physical — spans, global channels, times, peak, cell
    count, kind — participates, so "event-for-event identical" is
    exactly signature equality.
    """
    out = []
    for shard, record, seam_event in rows:
        ev = seam_event.event
        out.append(
            (
                int(shard),
                str(record),
                seam_event.j_start,
                seam_event.j_end,
                ev.kind,
                ev.channel_lo,
                ev.channel_hi,
                ev.n_cells,
                round(ev.t_start, 6),
                round(ev.t_end, 6),
                round(ev.peak_similarity, 6),
                round(ev.speed_channels_per_s, 6),
            )
        )
    return sorted(out)


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervisor loop knobs."""

    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    max_restarts: int = 3
    poll_sleep: float = 0.002
    wall_timeout: float = 600.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if self.wall_timeout <= 0:
            raise ConfigError("wall_timeout must be > 0")


def supervisor_main(
    comm,
    specs: list[ShardSpec],
    config: SupervisorConfig,
    health_path: str | None = None,
    clock=time.monotonic,
) -> dict:
    """Rank 0: supervise the shards, merge the catalog, report health."""
    shard_ids = [spec.shard_id for spec in specs]
    monitor = HeartbeatMonitor(config.heartbeat, shard_ids, now=clock())
    aggregator = CatalogAggregator({spec.shard_id: spec.channel_base for spec in specs})
    rank_of = {spec.shard_id: spec.rank for spec in specs}
    status: dict[int, dict] = {
        sid: {
            "incarnation": 0,
            "ingested": 0,
            "events": 0,
            "quarantined": 0,
            "complete": False,
            "stopped": False,
            "restarts": 0,
        }
        for sid in shard_ids
    }
    dead_since: dict[int, float] = {}
    recovery_s: dict[int, list[float]] = {sid: [] for sid in shard_ids}
    fabric = comm.fabric
    deadline = clock() + config.wall_timeout
    stop_sent = False

    def drain() -> None:
        now = clock()
        while True:
            msg = fabric.match_nowait(SUPERVISOR_RANK, ANY_SOURCE, TAG_EVENTS)
            if msg is None:
                break
            payload = msg.payload
            aggregator.apply(payload["shard"], payload["rows"])
        while True:
            msg = fabric.match_nowait(SUPERVISOR_RANK, ANY_SOURCE, TAG_HEARTBEAT)
            if msg is None:
                break
            beat = msg.payload
            sid = beat["shard"]
            previous = status[sid]["incarnation"]
            monitor.beat(sid, beat["incarnation"], now=now)
            if beat["incarnation"] > previous and sid in dead_since:
                recovery_s[sid].append(now - dead_since.pop(sid))
            for key in (
                "incarnation", "ingested", "events",
                "quarantined", "complete", "restarts",
            ):
                status[sid][key] = beat[key]
            if beat.get("stopped"):
                status[sid]["stopped"] = True
                monitor.mark_stopped(sid)

    while not all(status[sid]["stopped"] for sid in shard_ids):
        now = clock()
        if now > deadline:
            raise MPIError(
                f"sharded run exceeded wall timeout {config.wall_timeout}s; "
                f"states={monitor.states()} status={status}"
            )
        drain()
        for sid in monitor.poll(now):
            if status[sid]["restarts"] >= config.max_restarts:
                raise MPIError(
                    f"shard {sid} dead after {config.max_restarts} restarts"
                )
            dead_since.setdefault(sid, now)
            rank = rank_of[sid]
            # Restore the failed rank first: posts to a failed rank are
            # dropped, and the replacement process starts with an empty
            # mailbox either way.
            fabric.restore_rank(rank)
            comm.send({"cmd": "restart"}, dest=rank, tag=TAG_COMMAND)
            monitor.mark_restarting(sid, now)
            status[sid]["restarts"] += 1
        if not stop_sent and all(
            status[sid]["complete"] and monitor.state(sid) == ALIVE
            for sid in shard_ids
        ):
            for sid in shard_ids:
                comm.send({"cmd": "stop"}, dest=rank_of[sid], tag=TAG_COMMAND)
            stop_sent = True
        if health_path is not None:
            publish(health_path, json.dumps(_health_payload(
                monitor, status, recovery_s, clock()
            ), indent=2).encode())
        time.sleep(config.poll_sleep)
    # Final drain: every shard posted its tail events *before* its
    # stopped beat, and fabric posts are seq-ordered per mailbox, so
    # one more drain after the last stopped beat sees everything.
    drain()
    rows = aggregator.read()
    health = _health_payload(monitor, status, recovery_s, clock())
    if health_path is not None:
        publish(health_path, json.dumps(health, indent=2).encode())
    return {
        "rows": rows,
        "signature": catalog_signature(rows),
        "health": health,
        "recovery_s": {s: list(v) for s, v in recovery_s.items()},
        "restarts": {s: status[s]["restarts"] for s in shard_ids},
        "duplicates": aggregator.duplicates,
        "events": len(rows),
    }


def _health_payload(monitor, status, recovery_s, now) -> dict:
    return {
        "updated_unix": time.time(),
        "shards": {
            str(sid): {
                "state": monitor.state(sid),
                "silence_s": round(monitor.silence(sid, now), 4),
                "recoveries_s": [round(r, 4) for r in recovery_s[sid]],
                **status[sid],
            }
            for sid in status
        },
    }


def run_sharded(
    specs: list[ShardSpec],
    options: ShardOptions | None = None,
    supervisor: SupervisorConfig | None = None,
    chaos: ChaosSchedule | None = None,
    health_path: str | None = None,
) -> dict:
    """Run supervisor + one rank per shard; returns the merged result.

    The chaos schedule (if any) is split per shard; each shard rank
    interprets only its own actions.
    """
    if not specs:
        raise ConfigError("need at least one shard spec")
    ids = [spec.shard_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate shard ids: {sorted(ids)}")
    options = options if options is not None else ShardOptions()
    supervisor = supervisor if supervisor is not None else SupervisorConfig()
    by_rank = {spec.rank: spec for spec in specs}

    def rank_main(comm):
        if comm.rank == SUPERVISOR_RANK:
            return supervisor_main(
                comm, specs, supervisor, health_path=health_path
            )
        spec = by_rank[comm.rank]
        actions = chaos.for_shard(spec.shard_id) if chaos is not None else []
        return shard_main(comm, spec, options, actions)

    result = run_spmd(
        rank_main,
        size=len(specs) + 1,
        trace=False,
        recv_timeout=supervisor.wall_timeout,
    )
    merged = dict(result.results[SUPERVISOR_RANK])
    merged["shard_results"] = {
        shard_result["shard"]: shard_result
        for shard_result in result.results[1:]
    }
    return merged
