"""Service observability: latency, throughput, lag, queue depth.

The numbers the paper reports for the batch engine (Figs. 9-12) are
throughput numbers; a monitoring service is judged on *latency* — how
long after a file lands in the spool its events are in the log.  The
service records per-stage wall time (read / pipeline / events / total
per file), ingest lag (process time minus file mtime), queue depth and
files/sec, all snapshotable as plain dicts for the benchmark and
printable by the CLI.
"""

from __future__ import annotations

import time
from collections import deque

from repro.errors import ConfigError


def _interpolate(ordered: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of a pre-sorted sample list."""
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class LatencyStats:
    """Bounded-reservoir latency samples with exact percentiles.

    Keeps the most recent ``cap`` observations (a service runs forever;
    an unbounded list would not) — count and mean cover the full
    history, percentiles the retained window.
    """

    def __init__(self, cap: int = 4096):
        if cap < 1:
            raise ConfigError("reservoir cap must be >= 1")
        self._samples: deque[float] = deque(maxlen=cap)
        self.count = 0
        self.total = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(float(seconds))
        self.count += 1
        self.total += float(seconds)

    def percentile(self, q: float) -> float | None:
        """The ``q``-th percentile (0-100) of the retained window."""
        if not self._samples:
            return None
        return _interpolate(sorted(self._samples), q)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def snapshot(self) -> dict:
        # One copy, one sort: the deque may be appended to concurrently by
        # the service thread, so iterate it exactly once and derive every
        # statistic from that frozen copy.
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": _interpolate(ordered, 50) if ordered else None,
            "p95_s": _interpolate(ordered, 95) if ordered else None,
            "max_s": ordered[-1] if ordered else None,
        }


class RTMetrics:
    """Counters, gauges, and per-stage latency for one service run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.started = clock()
        self.ticks = 0
        self.files_ingested = 0
        self.files_quarantined = 0
        self.files_requeued = 0
        self.events_emitted = 0
        self.records_finished = 0
        self.samples_in = 0
        self.columns_out = 0
        self.backlog = 0
        self.stages: dict[str, LatencyStats] = {}
        self.ingest_lag = LatencyStats()

    def stage(self, name: str) -> LatencyStats:
        """The named stage's latency histogram (created on first use)."""
        if name not in self.stages:
            self.stages[name] = LatencyStats()
        return self.stages[name]

    @property
    def elapsed(self) -> float:
        return self.clock() - self.started

    @property
    def files_per_second(self) -> float:
        elapsed = self.elapsed
        return self.files_ingested / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> dict:
        """Everything, as a JSON-safe dict (for the benchmark payload)."""
        return {
            "elapsed_s": self.elapsed,
            "ticks": self.ticks,
            "files_ingested": self.files_ingested,
            "files_quarantined": self.files_quarantined,
            "files_requeued": self.files_requeued,
            "events_emitted": self.events_emitted,
            "records_finished": self.records_finished,
            "samples_in": self.samples_in,
            "columns_out": self.columns_out,
            "backlog": self.backlog,
            "files_per_second": self.files_per_second,
            "ingest_lag": self.ingest_lag.snapshot(),
            "stages": {
                name: stats.snapshot() for name, stats in self.stages.items()
            },
        }

    def report(self) -> str:
        """Aligned human-readable summary for the CLI."""
        lines = [
            f"{'files ingested':<18}{self.files_ingested}",
            f"{'quarantined':<18}{self.files_quarantined}",
            f"{'events emitted':<18}{self.events_emitted}",
            f"{'files/sec':<18}{self.files_per_second:.2f}",
        ]
        lag = self.ingest_lag.snapshot()
        if lag["count"]:
            lines.append(
                f"{'ingest lag':<18}p50 {lag['p50_s']:.3f}s  "
                f"p95 {lag['p95_s']:.3f}s"
            )
        for name, stats in sorted(self.stages.items()):
            snap = stats.snapshot()
            if snap["count"]:
                lines.append(
                    f"{'stage ' + name:<18}p50 {snap['p50_s'] * 1e3:.1f}ms  "
                    f"p95 {snap['p95_s'] * 1e3:.1f}ms  n={snap['count']}"
                )
        return "\n".join(lines)
