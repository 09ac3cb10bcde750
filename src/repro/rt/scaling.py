"""Shard-count → throughput / p95 projection on the machine model.

The sharded RT service is a fan-in: N shard ranks each ingest one
spool (one interrogator) and stream event batches + heartbeats to one
aggregator rank.  This module projects how that topology scales on a
modelled machine (the paper's 1456-node Cori regime): per-shard
ingest is embarrassingly parallel, so the ceiling is the aggregator —
its apply cost plus the α-β network cost of every batch and heartbeat
crossing the fan-in.

The queueing treatment is deliberately simple (M/M/1 sojourn at the
shard and at the aggregator, p95 = ln(20)·mean for the exponential
tail): good enough to place the knee of the curve — the shard count
where aggregator utilisation approaches 1 and p95 detaches from the
service time — which is the number a capacity plan needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.machine import ClusterSpec
from repro.errors import ConfigError

__all__ = ["ShardScalingPoint", "project_shard_scaling"]

#: p95 of an exponential sojourn is ln(20) ≈ 3.0 times its mean.
_P95_FACTOR = math.log(20.0)


@dataclass(frozen=True)
class ShardScalingPoint:
    """One point of the shard-scaling curve."""

    shards: int
    offered_files_per_s: float
    throughput_files_per_s: float
    shard_utilization: float
    aggregator_utilization: float
    mean_latency_s: float
    p95_latency_s: float
    saturated: bool

    def to_json(self) -> dict:
        return {
            "shards": self.shards,
            "offered_files_per_s": self.offered_files_per_s,
            "throughput_files_per_s": self.throughput_files_per_s,
            "shard_utilization": round(self.shard_utilization, 6),
            "aggregator_utilization": round(self.aggregator_utilization, 6),
            "mean_latency_s": (
                None if math.isinf(self.mean_latency_s)
                else round(self.mean_latency_s, 6)
            ),
            "p95_latency_s": (
                None if math.isinf(self.p95_latency_s)
                else round(self.p95_latency_s, 6)
            ),
            "saturated": self.saturated,
        }


def project_shard_scaling(
    cluster: ClusterSpec,
    shard_counts,
    file_interval_s: float = 60.0,
    process_s_per_file: float = 1.0,
    event_bytes_per_file: float = 2048.0,
    aggregator_apply_s: float = 1e-4,
    heartbeat_interval_s: float = 1.0,
    heartbeat_bytes: float = 256.0,
) -> list[ShardScalingPoint]:
    """Project the fan-in's throughput and p95 per shard count.

    Each shard is offered one file every ``file_interval_s`` (one
    interrogator writing minute files) and spends
    ``process_s_per_file`` of compute on it; every file yields an
    event batch of ``event_bytes_per_file`` shipped to the aggregator,
    which spends ``aggregator_apply_s`` merging it.  Heartbeats add a
    fixed background load.  Calibrate ``process_s_per_file`` and
    ``event_bytes_per_file`` from a measured single-shard run.
    """
    if file_interval_s <= 0 or process_s_per_file <= 0:
        raise ConfigError("file interval and per-file cost must be > 0")
    if heartbeat_interval_s <= 0:
        raise ConfigError("heartbeat_interval_s must be > 0")
    network = cluster.network
    points: list[ShardScalingPoint] = []
    for shards in shard_counts:
        shards = int(shards)
        if shards < 1:
            raise ConfigError("shard counts must be >= 1")
        rate_per_shard = 1.0 / file_interval_s
        offered = shards * rate_per_shard
        # Shard side: compute plus pushing the batch onto the wire.
        t_shard = process_s_per_file + network.p2p_time(
            int(event_bytes_per_file)
        )
        rho_shard = rate_per_shard * t_shard
        # Aggregator side: per-batch receive + merge, plus the steady
        # heartbeat background from every shard.
        t_agg = aggregator_apply_s + network.p2p_time(
            int(event_bytes_per_file)
        )
        t_beat = aggregator_apply_s + network.p2p_time(int(heartbeat_bytes))
        rho_agg = offered * t_agg + (shards / heartbeat_interval_s) * t_beat
        saturated = rho_shard >= 1.0 or rho_agg >= 1.0
        if saturated:
            throughput = min(shards / t_shard, 1.0 / t_agg)
            mean = math.inf
            p95 = math.inf
        else:
            throughput = offered
            mean = t_shard / (1.0 - rho_shard) + t_agg / (1.0 - rho_agg)
            p95 = _P95_FACTOR * mean
        points.append(
            ShardScalingPoint(
                shards=shards,
                offered_files_per_s=offered,
                throughput_files_per_s=throughput,
                shard_utilization=min(rho_shard, 1.0),
                aggregator_utilization=min(rho_agg, 1.0),
                mean_latency_s=mean,
                p95_latency_s=p95,
                saturated=saturated,
            )
        )
    return points
