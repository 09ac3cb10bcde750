"""Node and cluster specifications."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.network import NetworkModel
from repro.cluster.storage import StorageModel
from repro.errors import ConfigError
from repro.utils.units import parse_bytes


@dataclass(frozen=True)
class NodeSpec:
    """One computing node: core count and memory capacity."""

    cores: int = 32
    memory: int = 128 * 2**30

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError("a node needs at least one core")
        if self.memory <= 0:
            raise ConfigError("node memory must be positive")

    @classmethod
    def create(cls, cores: int, memory: int | str) -> "NodeSpec":
        return cls(cores=cores, memory=parse_bytes(memory))


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster: N nodes + interconnect + storage models."""

    nodes: int
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkModel = field(default_factory=NetworkModel)
    storage: StorageModel = field(default_factory=StorageModel)
    name: str = "generic"
    # Per-core sustained compute throughput, used to convert work units
    # (bytes of DAS samples processed) into seconds.  Calibrated per
    # workload by the benchmark harness.
    core_flops: float = 2.0e9

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigError("a cluster needs at least one node")
        if self.core_flops <= 0:
            raise ConfigError("core_flops must be positive")

    def node_of_rank(self, rank: int, ranks_per_node: int) -> int:
        """Block mapping of MPI ranks onto nodes."""
        if ranks_per_node < 1:
            raise ConfigError("ranks_per_node must be >= 1")
        node = rank // ranks_per_node
        if node >= self.nodes:
            raise ConfigError(
                f"rank {rank} does not fit: {self.nodes} nodes x "
                f"{ranks_per_node} ranks/node"
            )
        return node

    def same_node(self, rank_a: int, rank_b: int, ranks_per_node: int) -> bool:
        return self.node_of_rank(rank_a, ranks_per_node) == self.node_of_rank(
            rank_b, ranks_per_node
        )

    def with_nodes(self, nodes: int) -> "ClusterSpec":
        """The same machine at a different allocation size."""
        return ClusterSpec(
            nodes=nodes,
            node=self.node,
            network=self.network,
            storage=self.storage,
            name=self.name,
            core_flops=self.core_flops,
        )
