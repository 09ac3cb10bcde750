"""Lazy expression graphs over streaming pipelines.

An eager :func:`~repro.core.pipeline.run_chunks` call executes operators
in declaration order, so a channel selection or a decimation written
*after* the scan still pays for full-resolution reads.  This module is
the declarative layer above it: a :class:`Query` builds a small
expression graph (source, map, sink, post nodes) and nothing executes
until :mod:`repro.core.optimizer` lowers the graph into a physical plan
— pushing selection/decimation into the storage source and sharing
common prefixes between queries that branch from the same node.

Two structural operators are defined here because the optimizer's
pushdown rule targets them:

* :class:`ChannelSelectOp` — keep channel rows ``[lo, hi)``;
* :class:`SubsampleOp` — keep every ``step``-th raw sample (exact
  pointwise selection on the lattice ``{0, step, 2*step, ...}``, unlike
  :class:`~repro.core.operators.DecimateOp` which low-pass filters
  first).

Both are ordinary :class:`~repro.core.pipeline.Operator` subclasses, so
an *unoptimized* plan runs them eagerly inside the chain — which is what
makes the pushdown rewrite testably bit-exact: the optimized plan reads
the selected lattice straight from storage and must produce byte-equal
output.

:func:`verify_geometry` checks an operator's planner geometry: the
kernel trusts each operator's declared interval algebra
(``out_total`` / ``out_core`` / ``out_full`` / ``in_needed``) and
validates it on the one chunking a run actually uses
(:func:`repro.core.pipeline.run_chunks`, before its first read);
``verify_geometry`` sweeps a single operator over several chunkings with
the same checks (tiling, coverage, and containment of every core target
in its padded production), which is what the test suite runs over every
shipped operator.  An interval method that is wrong but still tiles
(``out_full`` dropped, say) passes it; the suite's incremental-versus-batch
sweep over the same operators is what fails then.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.core.pipeline import Operator, SinkOp, _plan_chunks
from repro.errors import ConfigError

__all__ = [
    "ChannelSelectOp",
    "CoordFrame",
    "Node",
    "Query",
    "SubsampleOp",
    "verify_geometry",
]


@dataclass(frozen=True)
class CoordFrame:
    """Maps an optimized plan's output coordinates back to raw source
    coordinates.

    Pushdown makes the executed stream a view — channel row 0 is raw
    channel ``channel_lo`` and output sample ``j`` is raw sample
    ``j * sample_step`` — while gap reports and event columns must stay
    meaningful in the original recording.  The facade exposes the frame
    of the last run so callers can translate.
    """

    channel_lo: int = 0
    channel_hi: int | None = None
    sample_step: int = 1

    def raw_sample(self, col):
        """Raw sample index of output sample ``col`` (int or array)."""
        return col * self.sample_step


class ChannelSelectOp(Operator):
    """Keep channel rows ``[lo, hi)`` of the input stream.

    Pushdown-eligible: the optimizer lowers a leading selection into a
    :class:`~repro.storage.chunks.SourceView` row range so unselected
    channels are never read.  Run eagerly (unoptimized), it slices rows
    in memory — output row ``r`` is input row ``lo + r``, hence the
    ``in_rows`` override; under threading ``ctx.channel_lo`` is the
    absolute input row of the block's row 0, so the eager form intersects
    its selection with the rows it was handed.
    """

    def __init__(self, lo: int, hi: int):
        lo, hi = int(lo), int(hi)
        if not (0 <= lo < hi):
            raise ConfigError(f"bad channel range [{lo}, {hi})")
        self.lo = lo
        self.hi = hi
        self.name = f"select[{lo}:{hi}]"

    def out_channels(self, channels_in: int) -> int:
        if self.hi > channels_in:
            raise ConfigError(
                f"channel selection [{self.lo}, {self.hi}) exceeds the "
                f"{channels_in} channels available"
            )
        return self.hi - self.lo

    def in_rows(self, lo: int, hi: int) -> tuple[int, int]:
        return lo + self.lo, hi + self.lo

    def apply(self, data: np.ndarray, ctx) -> np.ndarray:
        a = max(self.lo, ctx.channel_lo)
        b = min(self.hi, ctx.channel_lo + data.shape[0])
        if b < a:
            raise ConfigError(
                f"{self.name}: block rows [{ctx.channel_lo}, "
                f"{ctx.channel_lo + data.shape[0]}) miss the selection"
            )
        return data[a - ctx.channel_lo : b - ctx.channel_lo]


class SubsampleOp(Operator):
    """Keep every ``step``-th raw sample — exact pointwise decimation.

    The kept lattice is anchored at absolute sample 0 (``{0, step,
    2*step, ...}``), not at each block's first sample; ``apply`` offsets
    into the block accordingly, so chunked execution selects exactly the
    same samples as a whole-record run.  This is what the optimizer's
    decimation pushdown lowers into a strided storage read; contrast
    :class:`~repro.core.operators.DecimateOp`, which applies an
    anti-aliasing filter and is therefore never pushed down.
    """

    def __init__(self, step: int):
        step = int(step)
        if step < 1:
            raise ConfigError(f"subsample step must be >= 1, got {step}")
        self.step = step
        self.decimate = step
        self.name = f"subsample[{step}]"

    def apply(self, data: np.ndarray, ctx) -> np.ndarray:
        offset = (-ctx.start) % self.step
        return np.ascontiguousarray(data[..., offset :: self.step])


# ---------------------------------------------------------------------------
# the expression graph
# ---------------------------------------------------------------------------

_NODE_IDS = itertools.count(1)


class Node:
    """One plan node: ``source``, ``map``, ``sink``, or ``post``.

    Nodes are immutable once created and shared by identity — two queries
    built from the same intermediate hold the *same* node objects for the
    shared prefix, which is exactly what the optimizer's
    common-subexpression rule keys on.
    """

    __slots__ = ("id", "kind", "op", "parent", "payload")

    def __init__(
        self,
        kind: str,
        parent: "Node | None" = None,
        op: object = None,
        payload: dict | None = None,
    ):
        self.id = next(_NODE_IDS)
        self.kind = kind
        self.op = op
        self.parent = parent
        self.payload = payload or {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        what = self.payload.get("label") if self.kind == "source" else (
            getattr(self.op, "name", None)
        )
        return f"<Node {self.id} {self.kind} {what!r}>"


class Query:
    """A lazily-built analysis expression ending at :attr:`node`.

    Build with :meth:`scan` then chain :meth:`select_channels` /
    :meth:`decimate` / :meth:`then`; nothing reads data until the
    optimizer executes the plan.  Queries are cheap immutable handles:
    every builder call returns a new ``Query`` whose node points at the
    previous one, so branching (two detectors over one filtered stream)
    shares the prefix nodes by identity.
    """

    def __init__(self, node: Node, label: str | None = None):
        self.node = node
        self.label = label

    # -- construction -------------------------------------------------------
    @classmethod
    def scan(
        cls, source: object, fs: float | None = None, label: str | None = None
    ) -> "Query":
        """Start a query over ``source`` (anything
        :func:`~repro.storage.chunks.as_source` accepts)."""
        return cls(
            Node("source", payload={"source": source, "fs": fs, "label": label}),
            label=label,
        )

    def then(self, op: object, label: str | None = None) -> "Query":
        """Append an operator; sinks end the map section, operators after
        a sink become post stages (as :meth:`~repro.core.pipeline.Branch.of`
        splits them)."""
        if isinstance(op, SinkOp):
            if self._has_sink():
                raise ConfigError("query already has a sink")
            kind = "sink"
        elif isinstance(op, Operator):
            kind = "post" if self._has_sink() else "map"
        else:
            raise ConfigError(f"not an operator: {op!r}")
        return Query(
            Node(kind, parent=self.node, op=op), label=label or self.label
        )

    def select_channels(self, lo: int, hi: int) -> "Query":
        """Keep channel rows ``[lo, hi)`` (pushdown-eligible)."""
        return self.then(ChannelSelectOp(lo, hi))

    def decimate(self, step: int) -> "Query":
        """Keep every ``step``-th raw sample (pushdown-eligible; exact
        pointwise selection, no anti-aliasing filter)."""
        return self.then(SubsampleOp(step))

    def with_label(self, label: str) -> "Query":
        return Query(self.node, label=label)

    # -- inspection ---------------------------------------------------------
    def chain(self) -> list[Node]:
        """Nodes from the source to this query's tip, in execution order."""
        nodes: list[Node] = []
        node: Node | None = self.node
        while node is not None:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        if not nodes or nodes[0].kind != "source":
            raise ConfigError("query does not start at a scan")
        return nodes

    def operators(self) -> list:
        """The eager operator list (maps, sink, post) in pipeline order."""
        return [n.op for n in self.chain() if n.op is not None]

    def _has_sink(self) -> bool:
        node: Node | None = self.node
        while node is not None:
            if node.kind == "sink":
                return True
            node = node.parent
        return False


# ---------------------------------------------------------------------------
# geometry verification
# ---------------------------------------------------------------------------


def verify_geometry(
    op: Operator,
    total: int,
    chunk_sizes: Iterable[int] | None = None,
) -> None:
    """Round-trip check an operator's declared interval algebra.

    Runs the kernel's own chunk planner
    (:func:`repro.core.pipeline._plan_chunks`: tiling, containment,
    coverage) for a record of ``total`` input samples over several
    chunkings — by default the whole record, ``/2``, ``/3``, ``/7`` and
    the operator's decimation factor — where a run only validates the
    one chunking it executes.

    Raises :class:`~repro.errors.ConfigError` naming the operator and the
    first violated invariant.  Tests sweep every shipped operator with
    it, and run each one incrementally against batch execution.
    """
    if total < 1:
        raise ConfigError("verify_geometry needs total >= 1")
    out_total = op.out_total(total)
    if out_total < 0:
        raise ConfigError(
            f"operator {op.name!r}: out_total({total}) = {out_total} < 0"
        )
    if chunk_sizes is None:
        chunk_sizes = sorted(
            {
                total,
                max(1, total // 2),
                max(1, total // 3),
                max(1, total // 7),
                min(total, max(1, op.decimate)),
            }
        )
    for chunk in chunk_sizes:
        _plan_chunks([op], [total, out_total], max(1, min(int(chunk), total)))
