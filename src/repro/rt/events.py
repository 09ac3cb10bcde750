"""Event extraction from streamed detector columns + the JSONL sink.

The batch :func:`~repro.core.detection.detect_events` thresholds at
``median + k·MAD`` of the *whole* map — a global statistic no unbounded
stream can know.  The service therefore uses a fixed absolute threshold
with column-coverage triggering: a detector column is *hot* when at
least ``min_fraction`` of channels exceed ``threshold``, and a maximal
run of consecutive hot columns is one event.  The open run is the only
carried state, so the assembly is exactly streamable: feeding the map
column-interval by column-interval (as the incremental runner emits it)
yields the identical event list to one pass over the whole map
(:func:`map_events`), including events straddling file seams.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.detection import DetectedEvent
from repro.errors import ConfigError

STATE_VERSION = 1
#: The slope fit's carried sums, in checkpoint-payload order.
_SUMS = ("s_t", "s_ch", "s_tch", "s_tt")


@dataclass(frozen=True)
class EventPolicy:
    """Streamable trigger/classify parameters.

    ``threshold`` is an absolute score cut (similarity in [-1, 1] or an
    STA/LTA ratio); ``min_fraction`` is the channel coverage that makes
    a column hot; runs shorter than ``min_columns`` are discarded as
    single-column glitches.  Classification mirrors the batch detector:
    near-full channel span with no coherent slope → earthquake, a
    coherent moving ridge → vehicle, anything else unclassified.
    """

    threshold: float = 0.5
    min_fraction: float = 0.3
    min_columns: int = 2
    earthquake_span_fraction: float = 0.6
    min_vehicle_speed: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.min_fraction <= 1.0):
            raise ConfigError("min_fraction must be in (0, 1]")
        if self.min_columns < 1:
            raise ConfigError("min_columns must be >= 1")
        if not (0.0 < self.earthquake_span_fraction <= 1.0):
            raise ConfigError("earthquake_span_fraction must be in (0, 1]")
        if self.min_vehicle_speed < 0:
            raise ConfigError("min_vehicle_speed must be >= 0")


@dataclass(frozen=True)
class SeamEvent:
    """A detected event plus its detector-column span.

    ``(j_start, j_end)`` is deterministic given the record — the same
    event re-finalised after a checkpoint replay lands on the same span
    — so it is the sink's dedup key, which is what keeps
    kill-and-resume from doubling events emitted between the last
    checkpoint and the kill.
    """

    event: DetectedEvent
    j_start: int
    j_end: int  # inclusive

    @property
    def key(self) -> tuple[int, int]:
        return (self.j_start, self.j_end)

    def to_json(self) -> dict:
        payload = asdict(self.event)
        payload["j_start"] = self.j_start
        payload["j_end"] = self.j_end
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "SeamEvent":
        payload = dict(payload)
        j_start = int(payload.pop("j_start"))
        j_end = int(payload.pop("j_end"))
        payload.pop("record", None)
        return cls(DetectedEvent(**payload), j_start, j_end)

    def rebased(self, channel_offset: int) -> "SeamEvent":
        """The same event with its channel span shifted into a global
        frame — a shard that owns channels ``[base, base+n)`` detects in
        local coordinates and rebases by ``base`` before publishing to
        the merged catalog."""
        if not channel_offset:
            return self
        moved = DetectedEvent(
            label=self.event.label,
            kind=self.event.kind,
            channel_lo=self.event.channel_lo + int(channel_offset),
            channel_hi=self.event.channel_hi + int(channel_offset),
            t_start=self.event.t_start,
            t_end=self.event.t_end,
            peak_similarity=self.event.peak_similarity,
            n_cells=self.event.n_cells,
            speed_channels_per_s=self.event.speed_channels_per_s,
        )
        return SeamEvent(moved, self.j_start, self.j_end)


class EventAssembler:
    """Streaming run-length event assembly with exact batch equivalence.

    :meth:`feed` consumes one emitted ``((j_lo, j_hi), block)`` interval
    at a time (intervals must tile the column axis, which the incremental
    runner guarantees); a run of hot columns still open at the end of
    an interval is carried — with its slope-fit sums — into the next, so
    an event straddling a file seam is assembled once, not split or
    dropped.  The carried run round-trips through JSON for
    checkpoint/resume.
    """

    def __init__(
        self,
        policy: EventPolicy,
        fs: float,
        n_channels: int,
        channel_lo: int = 0,
        label_start: int = 1,
    ):
        if fs <= 0:
            raise ConfigError("event assembly needs fs > 0")
        if n_channels < 1:
            raise ConfigError("n_channels must be >= 1")
        self.policy = policy
        self.fs = float(fs)
        self.n_channels = int(n_channels)
        self.channel_lo = int(channel_lo)
        self._next_label = int(label_start)
        self._open: dict | None = None

    def feed(
        self, j_lo: int, centers: np.ndarray, block: np.ndarray
    ) -> list[SeamEvent]:
        """Consume columns ``[j_lo, j_lo + block.shape[1])``; returns the
        events finalised inside this interval.

        ``centers[k]`` is the absolute input-sample position of column
        ``j_lo + k`` (the similarity window centre, or the sample itself
        for STA/LTA) — event times are ``center / fs`` seconds into the
        record.
        """
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2:
            raise ConfigError("need a 2-D (channels, columns) block")
        centers = np.asarray(centers)
        if centers.shape != (block.shape[1],):
            raise ConfigError(
                f"{block.shape[1]} columns but {centers.shape} centers"
            )
        n_cols = block.shape[1]
        finalized: list[SeamEvent] = []
        if n_cols == 0:
            return finalized
        hits = block > self.policy.threshold
        counts = hits.sum(axis=0)
        hot = counts / block.shape[0] >= self.policy.min_fraction
        run = self._open
        if run is not None and not (hot[0] and j_lo == run["j_end"] + 1):
            finalized.extend(self._finalize())
        cols = np.flatnonzero(hot)
        if cols.size == 0:
            return finalized
        # Per hot column, as column reductions of the one hits matrix.
        hits = hits[:, cols]
        n = counts[cols]
        t = centers[cols].astype(np.float64) / self.fs
        ch_lo = hits.argmax(axis=0) + self.channel_lo
        ch_hi = block.shape[0] - 1 - hits[::-1].argmax(axis=0) + self.channel_lo
        ch_sum = np.einsum(
            "c,ct->t",
            np.arange(block.shape[0]) + self.channel_lo,
            hits.astype(np.int64),
        ).astype(np.float64)
        peak = np.where(hits, block[:, cols], -np.inf).max(axis=0)
        terms = np.stack([t * n, ch_sum, t * ch_sum, t * t * n])
        # Maximal runs of consecutive hot columns: run i is hot columns
        # [first[i], first[i + 1]) of ``cols``.
        first = np.flatnonzero(np.diff(cols, prepend=cols[0] - 2) > 1).tolist()
        for lo, hi in zip(first, first[1:] + [cols.size]):
            run = self._open  # only the first run can continue one
            if run is None:
                self._open = run = {
                    "j_start": j_lo + int(cols[lo]),
                    "j_end": 0,
                    "t_start": float(t[lo]),
                    "t_end": 0.0,
                    "ch_min": int(ch_lo[lo]),
                    "ch_max": int(ch_hi[lo]),
                    "peak": float(peak[lo]),
                    "n_cells": 0,
                    **dict.fromkeys(_SUMS, 0.0),
                }
            run["j_end"] = j_lo + int(cols[hi - 1])
            run["t_end"] = float(t[hi - 1])
            run["ch_min"] = min(run["ch_min"], int(ch_lo[lo:hi].min()))
            run["ch_max"] = max(run["ch_max"], int(ch_hi[lo:hi].max()))
            run["peak"] = max(run["peak"], float(peak[lo:hi].max()))
            run["n_cells"] += int(n[lo:hi].sum())
            # The float sums are order-sensitive: add column by column from
            # the carried value (accumulate is sequential), so any split of
            # the column axis lands on the same bits as one feed.
            carried = np.array([[run[key]] for key in _SUMS])
            sums = np.add.accumulate(
                np.concatenate([carried, terms[:, lo:hi]], axis=1), axis=1
            )[:, -1]
            run.update(zip(_SUMS, sums.tolist()))
            if cols[hi - 1] + 1 < n_cols:
                finalized.extend(self._finalize())
        return finalized

    def flush(self) -> list[SeamEvent]:
        """Finalise the run left open at the end of the record."""
        return self._finalize()

    def _finalize(self) -> list[SeamEvent]:
        run, self._open = self._open, None
        if run is None:
            return []
        if run["j_end"] - run["j_start"] + 1 < self.policy.min_columns:
            return []
        n = run["n_cells"]
        denom = n * run["s_tt"] - run["s_t"] ** 2
        if denom > 1e-12:
            slope = (n * run["s_tch"] - run["s_t"] * run["s_ch"]) / denom
        else:
            slope = 0.0
        duration = run["t_end"] - run["t_start"]
        span = run["ch_max"] - run["ch_min"] + 1
        span_fraction = span / self.n_channels
        if (
            span_fraction >= self.policy.earthquake_span_fraction
            and abs(slope) * max(duration, 1e-12) < 0.5 * self.n_channels
        ):
            kind = "earthquake"
        elif abs(slope) >= self.policy.min_vehicle_speed:
            kind = "vehicle"
        else:
            kind = "unclassified"
        event = DetectedEvent(
            label=self._next_label,
            kind=kind,
            channel_lo=run["ch_min"],
            channel_hi=run["ch_max"],
            t_start=run["t_start"],
            t_end=run["t_end"],
            peak_similarity=run["peak"],
            n_cells=n,
            speed_channels_per_s=slope,
        )
        self._next_label += 1
        return [SeamEvent(event, run["j_start"], run["j_end"])]

    # -- checkpoint/resume --------------------------------------------------
    def export_state(self) -> dict:
        """JSON-safe carried state: the open run plus the label counter."""
        return {
            "version": STATE_VERSION,
            "next_label": self._next_label,
            "open": dict(self._open) if self._open is not None else None,
        }

    def import_state(self, payload: dict) -> None:
        if payload.get("version") != STATE_VERSION:
            raise ConfigError(
                f"assembler state version {payload.get('version')!r} unsupported"
            )
        self._next_label = int(payload["next_label"])
        run = payload.get("open")
        self._open = dict(run) if run is not None else None


def map_events(
    block: np.ndarray,
    centers: np.ndarray,
    fs: float,
    policy: EventPolicy | None = None,
    n_channels: int | None = None,
    channel_lo: int = 0,
) -> list[SeamEvent]:
    """Batch reference: the same extraction over a whole detector map.

    The seam-equivalence tests compare the service's streamed event log
    against this single-pass result.
    """
    if policy is None:
        policy = EventPolicy()
    block = np.asarray(block, dtype=np.float64)
    if n_channels is None:
        n_channels = block.shape[0] + 2 * channel_lo
    assembler = EventAssembler(policy, fs, n_channels, channel_lo=channel_lo)
    events = assembler.feed(0, centers, block)
    events.extend(assembler.flush())
    return events


class EventSink:
    """Append-only JSONL event log with resume dedup.

    Each line is one event (``repro.core.detection.DetectedEvent``
    fields plus ``record``, ``j_start``, ``j_end``).  On open, existing
    ``(record, j_start, j_end)`` keys are loaded so a resumed service
    that re-finalises an already-logged event skips it instead of
    doubling it.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self._keys: set[tuple[str, int, int]] = set()
        self.count = 0
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    entry = json.loads(line)
                    self._keys.add(
                        (
                            str(entry.get("record", "")),
                            int(entry["j_start"]),
                            int(entry["j_end"]),
                        )
                    )
                    self.count += 1

    def emit(self, events: list[SeamEvent], record: str = "") -> list[SeamEvent]:
        """Append the not-yet-logged events; returns what was written."""
        written: list[SeamEvent] = []
        if not events:
            return written
        with open(self.path, "a", encoding="utf-8") as handle:
            for seam_event in events:
                key = (str(record), seam_event.j_start, seam_event.j_end)
                if key in self._keys:
                    continue
                payload = seam_event.to_json()
                payload["record"] = str(record)
                handle.write(json.dumps(payload) + "\n")
                self._keys.add(key)
                self.count += 1
                written.append(seam_event)
            handle.flush()
            os.fsync(handle.fileno())
        return written

    def load(self) -> list[SeamEvent]:
        """Read the full log back as :class:`SeamEvent` rows."""
        return [event for _, event in self.load_records()]

    def load_records(self) -> list[tuple[str, SeamEvent]]:
        """Read the full log back as ``(record, event)`` rows — the
        record is part of the cross-shard idempotency key, so a shard
        replaying its log to the aggregator must keep it."""
        rows: list[tuple[str, SeamEvent]] = []
        if not os.path.exists(self.path):
            return rows
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    entry = json.loads(line)
                    rows.append(
                        (str(entry.get("record", "")), SeamEvent.from_json(entry))
                    )
        return rows
