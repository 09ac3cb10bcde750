"""The monitoring service: watcher → backlog → incremental runner → event log.

One :meth:`RTService.tick` is one poll of the spool plus processing of
up to ``queue_capacity`` files from the front of the backlog: each
complete file is read, pushed through the detector chain's
:class:`~repro.core.pipeline.IncrementalRunner` (carried state threading
the halo across the file seam), the emitted columns are assembled into
events, and new events are appended to the JSONL log.  Failures never
stop the loop — a file that cannot be read goes to the back of the
backlog for a bounded number of retries and is then quarantined with its
reason, and the service moves on to the next file.

A checkpoint is taken after every ``checkpoint_every`` processed files,
counted file by file inside a tick (and on :meth:`close`); constructing
the service over a spool with a checkpoint resumes from it — the carried
tail is re-read from the processed files and digest-verified, the
bandpass's forward pass re-runs over it from the state the checkpoint
recorded (so resumed detector output is bit-identical), and the event
sink dedups anything that was finalised between the checkpoint and the
kill, so the resumed log equals an uninterrupted run's.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.core.pipeline import IncrementalRunner
from repro.daslib.lfilter import compiled_kernel
from repro.errors import CheckpointCorruptError, ConfigError, ReproError
from repro.rt.checkpoint import CHECKPOINT_NAME, CheckpointStore, read_sample_range
from repro.rt.events import EventAssembler, EventPolicy, EventSink
from repro.rt.ingest import Quarantine, SpoolWatcher
from repro.rt.metrics import RTMetrics
from repro.rt.scheduler import DetectorConfig
from repro.storage.dasfile import read_das_file
from repro.storage.metadata import parse_timestamp, timestamp_add_seconds

EVENTS_NAME = "events.jsonl"

#: A file whose stamp is further than this from where the record's last
#: file ended starts a new record (an acquisition gap).
_STAMP_TOLERANCE_S = 1.0


@dataclass(frozen=True)
class ServiceConfig:
    """Loop behaviour knobs (detection itself lives in DetectorConfig)."""

    poll_interval: float = 1.0
    settle_seconds: float = 1.0
    stable_polls: int = 2
    queue_capacity: int = 64  # files one tick processes
    max_retries: int = 3
    checkpoint_every: int = 1  # processed files between checkpoints; 0 = off

    def __post_init__(self) -> None:
        if self.poll_interval < 0:
            raise ConfigError("poll_interval must be >= 0")
        if self.queue_capacity < 1:
            raise ConfigError("queue capacity must be >= 1")
        if self.max_retries < 1:
            raise ConfigError("max_retries must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")


def _checkpoint_field(
    payload: dict,
    key: str,
    kind: type | tuple[type, ...],
    member: type | None = None,
) -> Any:
    """``payload[key]``, refused as :class:`ConfigError` naming the key when
    the document lacks it or it is not a ``kind`` (whose list items or dict
    values are all of type ``member``, given one).  Every key read is one
    :meth:`RTService.save_checkpoint` writes, so a CRC-valid document that
    lacks one or mistypes it is no service's, not an older one to default."""
    if key not in payload:
        raise ConfigError(f"checkpoint lacks {key!r}")
    value = payload[key]
    members = value.values() if isinstance(value, dict) else value
    if not isinstance(value, kind) or (
        member is not None and not all(isinstance(m, member) for m in members)
    ):
        raise ConfigError(f"checkpoint {key!r} has the wrong type: {value!r:.80}")
    return value


class RTService:
    """A continuously-running detector over a spool directory."""

    def __init__(
        self,
        spool: str,
        detector: DetectorConfig | None = None,
        policy: EventPolicy | None = None,
        config: ServiceConfig | None = None,
        events_path: str | None = None,
        clock=time.time,
        on_event=None,
        state_dir: str | None = None,
        on_file=None,
    ):
        self.spool = os.fspath(spool)
        # Durable state (events log, checkpoint, quarantine) defaults to
        # living inside the spool; a sharded deployment points it at a
        # separate directory so a vanished/remounted spool cannot take
        # the recovery state down with it.
        self.state_dir = (
            os.fspath(state_dir) if state_dir is not None else self.spool
        )
        self.detector = detector if detector is not None else DetectorConfig()
        if self.detector.band is not None:
            # The chain is built from the first file's geometry; import its
            # band-pass kernel now so that file's latency does not carry it.
            compiled_kernel()
        self.policy = policy if policy is not None else EventPolicy()
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock
        self.on_event = on_event
        self.on_file = on_file
        self.metrics = RTMetrics()
        self.watcher = SpoolWatcher(
            self.spool,
            settle_seconds=self.config.settle_seconds,
            stable_polls=self.config.stable_polls,
            clock=clock,
        )
        self.quarantine = Quarantine(self.spool, state_dir=self.state_dir)
        # The live record's carried state, built from its first file's
        # geometry; ``None`` between records.
        self.runner: IncrementalRunner | None = None
        self.sink = EventSink(
            events_path
            if events_path is not None
            else os.path.join(self.state_dir, EVENTS_NAME)
        )
        self.checkpoints = CheckpointStore(
            os.path.join(self.state_dir, CHECKPOINT_NAME)
        )
        self.assembler: EventAssembler | None = None
        self.files_done: list[tuple[str, int]] = []
        self.files_seen: set[str] = set()
        self._attempts: dict[str, int] = {}
        # Announced paths not yet processed, in announcement order;
        # retries rejoin at the back.
        self.backlog: deque[str] = deque()
        self._record: str = ""  # base timestamp naming the current record
        self._expected_stamp: str | None = None
        self._since_checkpoint = 0
        self.resume_error: str | None = None
        self.checkpoint_fallback: str | None = None
        self.watcher.mark_known(self.quarantine.paths())
        try:
            payload = self.checkpoints.load()
        except CheckpointCorruptError as exc:
            # No verifiable checkpoint generation at all.  Resuming from
            # bytes we cannot trust could corrupt the catalog silently;
            # starting from scratch merely replays work the event sink's
            # dedup absorbs.  The typed failure is surfaced, not hidden.
            self.checkpoint_fallback = str(exc)
            payload = None
        if payload is not None:
            if self.checkpoints.last_error is not None:
                # Primary checkpoint was torn/corrupt; we resumed from
                # the previous generation.  Replayed work dedups in the
                # sink, but the degradation is surfaced for supervision.
                self.checkpoint_fallback = str(self.checkpoints.last_error)
            self._resume(payload)

    # -- resume -------------------------------------------------------------
    def _resume(self, payload: dict) -> None:
        """Rebuild carried state from a checkpoint (tail digest-verified).

        A tail file that turned unreadable (corrupted, truncated,
        vanished) between checkpoint and resume must not kill the
        service: the carried detector state is dropped — the record is
        started fresh at the next file — and the failure is kept in
        :attr:`resume_error`.  Already-processed files stay marked as
        known either way, so nothing is double-ingested.  Every key
        :meth:`save_checkpoint` writes is read as written: one missing or
        of the wrong type is a ``ConfigError``, never a default.
        """
        done = _checkpoint_field(payload, "files_done", list, list)
        try:
            self.files_done = [(str(name), int(n)) for name, n in done]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"checkpoint 'files_done' is malformed: {exc}") from exc
        # files_seen outlives record finalisation (files_done is cleared
        # when a record ends) — it is what keeps finalised-record files
        # from being re-announced after a restart.
        self.files_seen = set(_checkpoint_field(payload, "files_seen", list, str))
        self._record = _checkpoint_field(payload, "record", str)
        self._expected_stamp = _checkpoint_field(
            payload, "expected_stamp", (str, type(None))
        )
        self._attempts = dict(_checkpoint_field(payload, "attempts", dict, int))
        self.watcher.mark_known(self._seen_paths())
        runner_state = _checkpoint_field(payload, "runner", (dict, type(None)))
        if runner_state is not None:
            lo = int(runner_state["buf_start"])
            hi = int(runner_state["seen"])
            if not 0 <= lo <= hi:
                # Counters no runner exports: tampering, not loss — refuse
                # before the range read could turn it into a degraded resume.
                raise ConfigError(
                    f"checkpointed runner tail [{lo}, {hi}) is not a sample range"
                )
            try:
                tail = read_sample_range(
                    [(path, n) for path, n in self._file_spans()], lo, hi
                )
            except (ReproError, OSError) as exc:
                # Unreadable tail: degrade, don't die.  A *readable* tail
                # whose samples changed still fails the digest check in
                # import_state below — tampering raises, loss degrades.
                self.resume_error = f"{type(exc).__name__}: {exc}"
                self.runner = None
                self.assembler = None
                self.files_done = []
                self._record = ""
                self._expected_stamp = None
                return
            self._runner_for(
                int(runner_state["n_channels"]), float(runner_state["fs"])
            ).import_state(runner_state, tail)
        assembler_state = _checkpoint_field(payload, "assembler", (dict, type(None)))
        if assembler_state is not None:
            self._ensure_assembler()
            self.assembler.import_state(assembler_state)

    def _seen_paths(self) -> list[str]:
        return [os.path.join(self.spool, name) for name in self.files_seen]

    def _file_spans(self) -> list[tuple[str, int]]:
        return [
            (os.path.join(self.spool, name), n) for name, n in self.files_done
        ]

    def _runner_for(self, n_channels: int, fs: float) -> IncrementalRunner:
        """The live record's runner: built from the first file's geometry,
        which every later file of the record must match."""
        if self.runner is None:
            self.runner = IncrementalRunner(
                self.detector.operators(fs), n_channels, fs=fs
            )
        elif n_channels != self.runner.n_channels or fs != self.runner.fs:
            raise ConfigError(
                f"file geometry ({n_channels} ch @ {fs} Hz) does not match the "
                f"running record ({self.runner.n_channels} ch @ {self.runner.fs} Hz)"
            )
        return self.runner

    # -- event assembly -----------------------------------------------------
    def _ensure_assembler(self) -> None:
        if self.assembler is not None:
            return
        if self.runner is None:
            raise ConfigError("assembler needs the runner's geometry first")
        self.assembler = EventAssembler(
            self.policy,
            self.runner.fs,
            self.runner.n_channels,
            channel_lo=self.detector.channel_lo,
        )

    def _assemble(self, pieces) -> list:
        """Feed emitted column intervals to the assembler; returns the
        events newly written to the log."""
        if not pieces:
            return []
        self._ensure_assembler()
        events = []
        for (j_lo, j_hi), block in pieces:
            centers = self.detector.centers(j_lo, j_hi)
            events.extend(self.assembler.feed(j_lo, centers, block))
            self.metrics.columns_out += j_hi - j_lo
        return self._emit(events)

    def _emit(self, events) -> list:
        """Write events to the sink, count them and hand each written one
        to ``on_event``; returns what the sink wrote."""
        written = self.sink.emit(events, record=self._record)
        self.metrics.events_emitted += len(written)
        if self.on_event is not None:
            for seam_event in written:
                self.on_event(seam_event)
        return written

    # -- record lifecycle ---------------------------------------------------
    def _finalize_record(self) -> list:
        """Flush the live record (gap or shutdown): clamp the right edge,
        emit the deferred tail, close the open event run."""
        written = []
        if self.runner is not None:
            written.extend(self._assemble(self.runner.flush()))
            if self.assembler is not None:
                written.extend(self._emit(self.assembler.flush()))
            self.metrics.records_finished += 1
        self.runner = None
        self.assembler = None
        self.files_done = []
        self._record = ""
        self._expected_stamp = None
        return written

    def flush(self) -> list:
        """Public record finalisation (drain/shutdown); checkpoint after."""
        written = self._finalize_record()
        self.save_checkpoint()
        return written

    # -- per-file processing ------------------------------------------------
    def _fail(
        self,
        path: str,
        reason: str,
        permanent: bool,
        error: BaseException | None = None,
    ) -> None:
        attempts = self._attempts.get(path, 0) + 1
        self._attempts[path] = attempts
        if permanent or attempts >= self.config.max_retries:
            self.quarantine.add(path, reason, attempts, error=error)
            self.metrics.files_quarantined += 1
            self._attempts.pop(path, None)
        else:
            self.backlog.append(path)  # retry on a later tick
            self.metrics.files_requeued += 1

    def _process(self, path: str) -> bool:
        """One file end to end; ``True`` when it was fully consumed."""
        t0 = self.metrics.clock()
        try:
            mtime = os.stat(path).st_mtime
            read_t0 = self.metrics.clock()
            data, meta = read_das_file(path)
            self.metrics.stage("read").record(self.metrics.clock() - read_t0)
            if data.size == 0:
                raise ConfigError("file holds no samples")
        except FileNotFoundError as exc:
            self._fail(
                path, "file vanished before it could be read", True, error=exc
            )
            return False
        except (ReproError, OSError) as exc:
            self._fail(path, str(exc), False, error=exc)
            return False

        stamp = meta.timestamp
        expected = self._expected_stamp
        if expected is not None and stamp:
            try:
                gap = abs(
                    (parse_timestamp(stamp) - parse_timestamp(expected))
                    .total_seconds()
                )
            except ReproError:
                gap = None
            if gap is not None and gap > _STAMP_TOLERANCE_S:
                # Acquisition gap: the record ended; start a new one.
                self._finalize_record()

        try:
            pipe_t0 = self.metrics.clock()
            if data.ndim != 2:
                raise ConfigError("need a 2-D (channels, samples) array")
            pieces = self._runner_for(
                data.shape[0], float(meta.sampling_frequency)
            ).push(data)
            self.metrics.stage("pipeline").record(
                self.metrics.clock() - pipe_t0
            )
        except ReproError as exc:
            # Geometry mismatch is permanent.
            self._fail(path, str(exc), True, error=exc)
            return False

        if not self._record:
            self._record = stamp or os.path.basename(path)
        events_t0 = self.metrics.clock()
        self._assemble(pieces)
        self.metrics.stage("events").record(self.metrics.clock() - events_t0)

        n_samples = data.shape[1]
        if meta.sampling_frequency > 0 and stamp:
            self._expected_stamp = timestamp_add_seconds(
                stamp, n_samples / meta.sampling_frequency
            )
        self.files_done.append((os.path.basename(path), int(n_samples)))
        self.files_seen.add(os.path.basename(path))
        self._attempts.pop(path, None)
        self.metrics.files_ingested += 1
        self.metrics.samples_in += int(n_samples)
        self.metrics.ingest_lag.record(max(self.clock() - mtime, 0.0))
        self.metrics.stage("total").record(self.metrics.clock() - t0)
        if self.on_file is not None:
            # Chaos hook: fires after the file is fully consumed but
            # (possibly) before the next checkpoint — it may raise
            # InjectedFaultError to simulate a crash at exactly this
            # point, which propagates out of tick() like a real death.
            self.on_file(path)
        return True

    # -- the loop -----------------------------------------------------------
    def tick(self) -> int:
        """One poll, then up to ``queue_capacity`` files from the front of
        the backlog; returns files fully processed."""
        self.metrics.ticks += 1
        self.backlog.extend(
            path for path in self.watcher.scan() if path not in self.quarantine
        )
        processed = 0
        for _ in range(min(self.config.queue_capacity, len(self.backlog))):
            if not self._process(self.backlog.popleft()):
                continue
            processed += 1
            self._since_checkpoint += 1
            if (
                self.config.checkpoint_every
                and self._since_checkpoint >= self.config.checkpoint_every
            ):
                self.save_checkpoint()
        # Counted after processing: a retry rejoins the back of the
        # backlog and is waiting too.
        self.metrics.backlog = len(self.backlog)
        return processed

    def drain(self, max_ticks: int = 1000) -> int:
        """Tick until the spool is quiet (tests and ``--drain`` mode)."""
        total = 0
        for _ in range(max_ticks):
            total += self.tick()
            # Probe with a real scan: anything it announces is kept (an
            # announcement is one-shot, so a discarded result would lose
            # the file forever).
            fresh = [
                path
                for path in self.watcher.scan()
                if path not in self.quarantine
            ]
            self.backlog.extend(fresh)
            if not fresh and not self.backlog and not self.watcher.pending:
                break
        return total

    def run(self, stop_check=None, max_ticks: int | None = None) -> None:
        """The blocking service loop (the CLI's engine)."""
        ticks = 0
        while True:
            if stop_check is not None and stop_check():
                break
            if max_ticks is not None and ticks >= max_ticks:
                break
            processed = self.tick()
            ticks += 1
            if not processed and self.config.poll_interval > 0:
                time.sleep(self.config.poll_interval)
        self.save_checkpoint()

    # -- checkpointing ------------------------------------------------------
    def save_checkpoint(self) -> None:
        """Atomically persist everything a resume needs."""
        if not self.config.checkpoint_every:
            return
        payload = {
            "files_done": [[name, n] for name, n in self.files_done],
            "files_seen": sorted(self.files_seen),
            "record": self._record,
            "expected_stamp": self._expected_stamp,
            "runner": (
                self.runner.export_state() if self.runner is not None else None
            ),
            "assembler": (
                self.assembler.export_state()
                if self.assembler is not None
                else None
            ),
            "attempts": dict(self._attempts),
        }
        self.checkpoints.save(payload)
        self._since_checkpoint = 0

    def close(self) -> None:
        """Checkpoint without finalising the record (a paused acquisition
        resumes mid-record; use :meth:`flush` for a true end-of-record)."""
        self.save_checkpoint()
