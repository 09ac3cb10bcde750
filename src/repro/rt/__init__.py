"""Real-time DAS monitoring service.

DASSA batch-processes an archive, but its target sensors never stop
writing: the paper's 2880-file day is one day of a continuous
acquisition.  This package turns the repo's streaming kernels into a
long-running service:

* :mod:`repro.rt.ingest` — spool-directory watcher (complete-file
  heuristics), bounded work queue with backpressure, quarantine;
* :mod:`repro.rt.scheduler` — :class:`DetectorConfig`, the detector
  chain the service runs *across file boundaries* through the operator
  graph's :class:`~repro.core.pipeline.IncrementalRunner`, so detections
  at file seams equal a batch run over the concatenated record;
* :mod:`repro.rt.events` — streaming event assembly and a JSONL sink
  with seam-dedup;
* :mod:`repro.rt.checkpoint` — atomic JSON checkpoints for
  kill-and-resume with no missed or duplicated events;
* :mod:`repro.rt.metrics` — per-stage latency, queue depth, ingest lag;
* :mod:`repro.rt.service` / :mod:`repro.rt.cli` — the service loop and
  ``python -m repro.rt watch <spool>``;
* :mod:`repro.rt.shard` / :mod:`repro.rt.supervisor` — the sharded
  multi-interrogator deployment: one RTService per spool on its own
  ``simmpi`` rank, heartbeat-based failure detection with automatic
  checkpoint-resume restarts, and an idempotent merged catalog with
  bounded-staleness reads (``watch --shards N``).
"""

from repro.rt.checkpoint import CheckpointStore, read_sample_range
from repro.rt.events import (
    EventAssembler,
    EventPolicy,
    EventSink,
    SeamEvent,
    map_events,
)
from repro.rt.ingest import PendingFile, Quarantine, SpoolWatcher, WorkQueue
from repro.rt.metrics import LatencyStats, RTMetrics
from repro.rt.scheduler import DetectorConfig
from repro.rt.service import RTService, ServiceConfig
from repro.rt.shard import ShardOptions, ShardRuntime, ShardSpec, shard_main
from repro.rt.supervisor import (
    CatalogAggregator,
    HeartbeatConfig,
    HeartbeatMonitor,
    SupervisorConfig,
    catalog_signature,
    run_sharded,
    supervisor_main,
)

__all__ = [
    "CheckpointStore",
    "read_sample_range",
    "EventAssembler",
    "EventPolicy",
    "EventSink",
    "SeamEvent",
    "map_events",
    "PendingFile",
    "Quarantine",
    "SpoolWatcher",
    "WorkQueue",
    "LatencyStats",
    "RTMetrics",
    "DetectorConfig",
    "RTService",
    "ServiceConfig",
    "ShardOptions",
    "ShardRuntime",
    "ShardSpec",
    "shard_main",
    "CatalogAggregator",
    "HeartbeatConfig",
    "HeartbeatMonitor",
    "SupervisorConfig",
    "catalog_signature",
    "run_sharded",
    "supervisor_main",
]
