"""Per-node memory accounting.

Pure-MPI ArrayUDF replicates the master channel on every rank of a node
(16 copies/node in the paper's Fig. 8 test), which makes the 91-node case
run out of memory.  ``MemoryTracker`` performs that bookkeeping: engines
register their allocations per node and an :class:`OutOfMemoryError` is
raised the moment a node exceeds its capacity — before any (simulated)
compute is charged, matching how an MPI job dies on allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError, OutOfMemoryError


@dataclass
class MemoryTracker:
    """Tracks live allocations per node of a cluster."""

    node_memory: int
    nodes: int
    _used: dict[int, int] = field(default_factory=dict)
    _labels: dict[int, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.node_memory <= 0 or self.nodes < 1:
            raise ConfigError("invalid memory tracker configuration")

    def used(self, node: int) -> int:
        return self._used.get(node, 0)

    def available(self, node: int) -> int:
        return self.node_memory - self.used(node)

    def allocate(self, node: int, nbytes: int, label: str = "anon") -> None:
        """Charge ``nbytes`` against ``node``; raise if it doesn't fit."""
        if not (0 <= node < self.nodes):
            raise ConfigError(f"node {node} out of range [0, {self.nodes})")
        if nbytes < 0:
            raise ConfigError("cannot allocate a negative amount")
        new_used = self.used(node) + nbytes
        if new_used > self.node_memory:
            raise OutOfMemoryError(node, float(new_used), float(self.node_memory))
        self._used[node] = new_used
        per_label = self._labels.setdefault(node, {})
        per_label[label] = per_label.get(label, 0) + nbytes

    def free(self, node: int, nbytes: int, label: str = "anon") -> None:
        current = self.used(node)
        if nbytes > current:
            raise ConfigError(
                f"freeing {nbytes} bytes but node {node} only holds {current}"
            )
        self._used[node] = current - nbytes
        per_label = self._labels.get(node, {})
        if label in per_label:
            per_label[label] = max(0, per_label[label] - nbytes)

    def peak_node(self) -> tuple[int, int]:
        """(node, bytes) of the most loaded node; (0, 0) when untouched."""
        if not self._used:
            return (0, 0)
        node = max(self._used, key=lambda n: self._used[n])
        return node, self._used[node]

    def breakdown(self, node: int) -> dict[str, int]:
        """Per-label allocation breakdown for diagnostics."""
        return dict(self._labels.get(node, {}))
