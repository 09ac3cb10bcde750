"""One shard of the sharded RT service: an RTService wrapped in a rank.

Topology (see DESIGN.md §16): rank 0 is the supervisor + catalog
aggregator; rank ``1 + shard_id`` runs one :class:`ShardRuntime` — an
:class:`~repro.rt.service.RTService` over that shard's own spool and
channel range, plus the messaging glue: heartbeats to the supervisor,
event forwarding, and command handling (restart / stop).

Crash semantics: a shard "process" is the in-memory ``RTService``
instance.  A simulated crash (:class:`~repro.errors.InjectedFaultError`
from the chaos ``on_file`` hook) drops the instance without flushing —
exactly what ``SIGKILL`` leaves behind — and marks the rank failed on
the fabric, so in-flight messages to it are lost like a real dead
process's socket buffers.  Recovery is driven by the supervisor: it
restores the rank and sends ``restart``; the shard rebuilds from its
own atomic checkpoint under :func:`~repro.faults.policy.retry_call`
with the configured :class:`~repro.faults.policy.FailurePolicy`
backoff, then **re-sends its entire local event log** — idempotent
re-ingestion, deduped by the aggregator on
``(shard, record, j_start, j_end)`` — so a replayed tail can never
double-count events.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.errors import ConfigError, DegradedReadError, InjectedFaultError
from repro.faults.chaos import ChaosAction, restore_dir, tear_file, vanish_dir
from repro.faults.policy import FailurePolicy, retry_call
from repro.rt.events import EventPolicy, read_event_log
from repro.rt.scheduler import DetectorConfig
from repro.rt.service import RTService, ServiceConfig

__all__ = [
    "TAG_HEARTBEAT",
    "TAG_EVENTS",
    "TAG_COMMAND",
    "SUPERVISOR_RANK",
    "ShardSpec",
    "ShardChaos",
    "ShardRuntime",
    "shard_main",
]

TAG_HEARTBEAT = 101
TAG_EVENTS = 102
TAG_COMMAND = 103
SUPERVISOR_RANK = 0


@dataclass(frozen=True)
class ShardSpec:
    """Static description of one shard: which spool it ingests, where
    its durable state lives (outside the spool, so a vanished spool
    volume cannot take the checkpoint with it), and which global
    channel range it owns (``channel_base`` rebases local detections
    into the merged catalog's frame).

    ``expected_files`` makes drain-style runs self-terminating: the
    shard reports ``complete`` once every expected file is ingested or
    quarantined.  ``None`` means free-running (the CLI watch mode).
    """

    shard_id: int
    spool: str
    state_dir: str
    channel_base: int = 0
    expected_files: int | None = None

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ConfigError("shard_id must be >= 0")
        if self.channel_base < 0:
            raise ConfigError("channel_base must be >= 0")

    @property
    def rank(self) -> int:
        return self.shard_id + 1


class ShardChaos:
    """Interprets a shard's :class:`~repro.faults.chaos.ChaosAction`
    list against the running service.

    The ``on_file`` hook fires after each fully-ingested file; when the
    count hits an action's trigger point, the action's side effects run
    (tear the checkpoint, vanish the spool, set the hang flag) and an
    :class:`~repro.errors.InjectedFaultError` aborts the tick — the
    simulated crash.  Each action fires exactly once.
    """

    def __init__(self, spec: ShardSpec, actions: list[ChaosAction]):
        self.spec = spec
        self._pending = sorted(actions, key=lambda a: a.at_file)
        self.files = 0
        self.hang = False
        self.tear_on_crash: ChaosAction | None = None
        self.vanish_attempts_left: int | None = None
        self.fired: list[ChaosAction] = []

    def on_file(self, path: str) -> None:
        self.files += 1
        if not self._pending or self._pending[0].at_file != self.files:
            return
        action = self._pending.pop(0)
        self.fired.append(action)
        if action.kind == "hang":
            self.hang = True
        elif action.kind == "torn-checkpoint":
            self.tear_on_crash = action
        elif action.kind == "spool-vanish":
            vanish_dir(self.spec.spool)
            self.vanish_attempts_left = action.down_ticks
        raise InjectedFaultError(
            f"shard {self.spec.shard_id}: injected {action.kind} "
            f"after file {self.files}"
        )

    def on_crash(self, checkpoint_path: str) -> None:
        """Post-crash damage: the torn-mid-rename checkpoint write."""
        action, self.tear_on_crash = self.tear_on_crash, None
        if action is not None and os.path.exists(checkpoint_path):
            tear_file(checkpoint_path, keep_fraction=action.keep_fraction)

    def before_rebuild_attempt(self) -> None:
        """Called once per restart attempt; brings a vanished spool back
        after ``down_ticks`` failed attempts, so the bounded-retry
        rebuild first fails against the missing volume and then
        succeeds — the vanish/reappear cycle."""
        if self.vanish_attempts_left is None:
            return
        self.vanish_attempts_left -= 1
        if self.vanish_attempts_left <= 0:
            restore_dir(self.spec.spool)
            self.vanish_attempts_left = None


@dataclass
class ShardOptions:
    """Everything a shard rank needs beyond its spec."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    event_policy: EventPolicy = field(default_factory=EventPolicy)
    service_config: ServiceConfig = field(default_factory=ServiceConfig)
    restart_policy: FailurePolicy = field(
        default_factory=lambda: FailurePolicy(retries=5, backoff=0.01)
    )
    idle_sleep: float = 0.002


class ShardRuntime:
    """The shard rank's event loop around one (replaceable) RTService."""

    def __init__(self, comm, spec: ShardSpec, options: ShardOptions,
                 actions: list[ChaosAction] | None = None):
        self.comm = comm
        self.spec = spec
        self.options = options
        self.chaos = ShardChaos(spec, list(actions or []))
        self.incarnation = 0
        self.restarts = 0
        self.service: RTService | None = None
        self._sent_end = 0  # byte offset past the last forwarded log row
        self._checkpoint_path = ""
        self._stopped = False
        self.checkpoint_fallbacks: list[str] = []
        self.resume_errors: list[str] = []

    # -- service lifecycle ----------------------------------------------------
    def _make_service(self) -> RTService:
        os.makedirs(self.spec.state_dir, exist_ok=True)
        service = RTService(
            self.spec.spool,
            detector=self.options.detector,
            policy=self.options.event_policy,
            config=self.options.service_config,
            state_dir=self.spec.state_dir,
            on_file=self._on_file,
        )
        self._checkpoint_path = service.checkpoints.path
        return service

    def _on_file(self, path: str) -> None:
        """Per-file hook inside the tick: chaos first (a fired action
        aborts the tick before any beat), then a heartbeat — a tick can
        drain many files, and without mid-tick beats a merely *busy*
        shard would exceed the dead deadline and get restarted."""
        self.chaos.on_file(path)
        if self.service is not None:
            self._beat()

    def _build(self, first: bool) -> None:
        """(Re)build the service; a dirty resume is a retryable failure."""

        def attempt() -> RTService:
            self.chaos.before_rebuild_attempt()
            if not os.path.isdir(self.spec.spool):
                # A vanished spool volume: starting now would scan
                # nothing and (with a checkpoint) drop carried state.
                # Fail the attempt and let the backoff wait it out.
                raise DegradedReadError(self.spec.spool, reason="spool vanished")
            service = self._make_service()
            if service.resume_error is not None:
                # The checkpointed tail is unreadable right now (e.g. the
                # spool is still vanished).  Resuming would silently drop
                # carried detector state, so treat it as a failed start
                # and let the bounded backoff wait the outage out.
                reason = service.resume_error
                self.resume_errors.append(reason)
                raise DegradedReadError(self.spec.spool, reason=reason)
            return service

        policy = self.options.restart_policy
        self.service = retry_call(
            attempt, retries=policy.retries, backoff=policy.backoff
        )
        if self.service.checkpoint_fallback is not None:
            self.checkpoint_fallbacks.append(self.service.checkpoint_fallback)
        if not first:
            self.incarnation += 1
            self.restarts += 1
        # Idempotent re-ingestion: everything in the local log is
        # (re)offered to the aggregator; it dedups on the event key, so
        # rows that made it across before the crash are absorbed.
        self._sent_end = 0

    def _crash(self) -> None:
        """Drop the service exactly as a SIGKILL would: no flush, no
        checkpoint, volatile queue/announce state gone; then mark the
        rank dead on the fabric so the supervisor's detector sees it.
        (The runner's row threads are stopped, as the kill would end them.)"""
        if self.service is not None and self.service.runner is not None:
            self.service.runner.close()
        self.service = None
        self.chaos.on_crash(self._checkpoint_path)
        self.comm.fabric.fail_rank(self.comm.rank)

    # -- messaging ------------------------------------------------------------
    def _forward_events(self) -> None:
        service = self.service
        if service is None or service.sink.end <= self._sent_end:
            return
        rows, self._sent_end = read_event_log(service.sink.path, self._sent_end)
        self.comm.send(
            {
                "shard": self.spec.shard_id,
                "incarnation": self.incarnation,
                "rows": rows,
            },
            dest=SUPERVISOR_RANK,
            tag=TAG_EVENTS,
        )

    def _complete(self) -> bool:
        service, spec = self.service, self.spec
        if service is None or spec.expected_files is None:
            return False
        seen = len(service.files_seen) + len(service.quarantine)
        return seen >= spec.expected_files

    def _beat(self, stopped: bool = False) -> None:
        service = self.service
        self.comm.send(
            {
                "shard": self.spec.shard_id,
                "incarnation": self.incarnation,
                "ingested": len(service.files_seen) if service else 0,
                "events": service.sink.count if service else 0,
                "quarantined": len(service.quarantine) if service else 0,
                "complete": self._complete(),
                "restarts": self.restarts,
                "stopped": stopped,
            },
            dest=SUPERVISOR_RANK,
            tag=TAG_HEARTBEAT,
        )

    def _poll_command(self) -> dict | None:
        msg = self.comm.fabric.match_nowait(
            self.comm.rank, SUPERVISOR_RANK, TAG_COMMAND
        )
        return None if msg is None else msg.payload

    # -- the loop -------------------------------------------------------------
    def run(self) -> dict:
        self._build(first=True)
        while not self._stopped:
            if self.comm.fabric.is_failed(self.comm.rank):
                # Crashed: a dead process does nothing until the
                # supervisor restores the rank and commands a restart.
                time.sleep(self.options.idle_sleep)
                continue
            command = self._poll_command()
            if command is not None:
                if command.get("cmd") == "stop":
                    self._stop()
                    break
                if command.get("cmd") == "restart":
                    self.chaos.hang = False
                    self._build(first=False)
            if self.chaos.hang or self.service is None:
                # Hung: the process is alive but wedged — no ticks, no
                # heartbeats.  Only the supervisor's missed-deadline
                # detector can get it restarted.
                time.sleep(self.options.idle_sleep)
                continue
            try:
                processed = self.service.tick()
            except InjectedFaultError:
                if self.chaos.hang:
                    # A hang is a wedge, not a death: keep the rank
                    # reachable so the restart command arrives.
                    time.sleep(self.options.idle_sleep)
                else:
                    self._crash()
                continue
            self._forward_events()
            self._beat()
            if not processed:
                time.sleep(self.options.idle_sleep)
        return {
            "shard": self.spec.shard_id,
            "incarnation": self.incarnation,
            "restarts": self.restarts,
            "ingested": len(self.service.files_seen) if self.service else 0,
            "events": self.service.sink.count if self.service else 0,
            "checkpoint_fallbacks": list(self.checkpoint_fallbacks),
            "resume_errors": list(self.resume_errors),
            "chaos_fired": [a.kind for a in self.chaos.fired],
        }

    def _stop(self) -> None:
        """Graceful stop: finalise the record, ship the tail, ack."""
        if self.service is not None:
            self.service.flush()
            self._forward_events()
        self._beat(stopped=True)
        self._stopped = True


def shard_main(comm, spec: ShardSpec, options: ShardOptions,
               actions: list[ChaosAction] | None = None) -> dict:
    """Entry point for a shard rank under ``run_spmd``."""
    return ShardRuntime(comm, spec, options, actions).run()
