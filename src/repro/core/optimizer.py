"""Rule-based optimizer lowering expression graphs to physical plans.

Takes one or more :class:`~repro.core.graph.Query` expressions sharing a
scan and produces a :class:`PhysicalPlan` via two rewrites:

1. **Pushdown** — a leading run of
   :class:`~repro.core.graph.ChannelSelectOp` /
   :class:`~repro.core.graph.SubsampleOp` is absorbed into a
   :class:`~repro.storage.chunks.SourceView`, so a decimate-by-``q``
   query issues strided backend reads (bounding spans of the lattice:
   never more requests or bytes than the block it sits in, fewer bytes
   once the holes exceed the coalescing gap) and a channel selection
   never reads unselected rows.
2. **Common-subexpression sharing** — queries branching from the same
   node execute the shared prefix once per chunk and fan its output out
   to every branch tail.

A plan does not execute itself: :func:`execute` lowers it onto the one
chunk-loop kernel, :func:`repro.core.pipeline.run_chunks` (shared map
prefix → branch tails), choosing only the source, the prefix, the tails
and the chunk length.  This module contains no chunk loop and reads no
chunk data.

**One chunk-length rule** (:func:`_resolve_execution`, the only place a
length is derived — every facade analysis reaches it as a one-branch
plan): an explicit ``chunk_samples`` is used as given; otherwise the
length whose blocks, as many as the run holds at once
(:func:`~repro.core.pipeline.in_flight`), fit
:data:`~repro.storage.chunks.DEFAULT_CHUNK_BYTES` together.

Equivalence contract (asserted by the test suite):

* ``execute(plan, naive=True)`` is the reference lowering: the raw
  source, the eager chains split at the logical shared prefix, and the
  prefix recomputed per branch with identical arguments — so hoisting
  it (the CSE rewrite) is bitwise safe by construction.  For a
  **single-output** plan that is exactly the eager
  :class:`~repro.core.pipeline.StreamPipeline` run of the operator list;
* the optimized lowering (pushdown + shared prefix) is
  *bit-identical* to that reference, single- or multi-output.  Co-run
  branches are *not* claimed bit-identical to independent single runs:
  interval-sensitive kernels (IIR settling, running-sum ratios)
  legitimately differ in final bits when evaluated over the union of two
  branches' halos.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.graph import (
    ChannelSelectOp,
    CoordFrame,
    Query,
    SubsampleOp,
)
from repro.core.pipeline import (
    Branch,
    PipelineResult,
    SinkOp,
    _ceil_div,
    computes_nothing,
    in_flight,
    run_chunks,
)
from repro.errors import ConfigError
from repro.faults.policy import FailurePolicy
from repro.storage.chunks import (
    DEFAULT_CHUNK_BYTES,
    SourceView,
    as_source,
    auto_chunk_samples,
)
from repro.utils.iostats import IOStats
from repro.utils.timer import Timer

__all__ = [
    "PhysicalPlan",
    "execute",
    "explain",
    "optimize",
]


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass
class PhysicalPlan:
    """An optimized, executable plan for one or more queries.

    ``chains`` keeps each query's eager operator chain (``naive=True``
    runs it verbatim); ``select``/``step``/``prefix``/``branches`` are the
    rewritten form — each branch the optimized tail after the shared
    prefix.
    ``shared_len`` counts the *logical* shared map prefix (including the
    ``pushed_ops`` absorbed into the source).
    """

    source: Any
    fs: float | None
    chains: list[Branch]
    shared_len: int
    pushed_ops: int
    select: tuple[int, int] | None
    step: int
    prefix: list
    branches: list[Branch]
    chunk_samples: int | None
    threads: int
    frame: CoordFrame = field(default_factory=CoordFrame)
    notes: list[str] = field(default_factory=list)

    @property
    def pushed(self) -> bool:
        return self.select is not None or self.step > 1


# ---------------------------------------------------------------------------
# the optimizer
# ---------------------------------------------------------------------------


def optimize(
    queries: Query | Sequence[Query],
    chunk_samples: int | None = None,
    threads: int = 1,
) -> PhysicalPlan:
    """Lower one or more queries sharing a scan into a physical plan."""
    if isinstance(queries, Query):
        queries = [queries]
    queries = list(queries)
    if not queries:
        raise ConfigError("optimize needs at least one query")
    if threads < 1:
        raise ConfigError("threads must be >= 1")

    chains: list[Branch] = []
    id_lists: list[list[int]] = []
    root = None
    for i, q in enumerate(queries):
        if not isinstance(q, Query):
            raise ConfigError(f"not a query: {q!r}")
        nodes = q.chain()
        if root is None:
            root = nodes[0]
        elif nodes[0] is not root:
            raise ConfigError(
                "all queries in one plan must branch from the same scan"
            )
        maps: list = []
        map_ids: list[int] = []
        sink: SinkOp | None = None
        post: list = []
        for n in nodes[1:]:
            if n.kind == "map":
                maps.append(n.op)
                map_ids.append(n.id)
            elif n.kind == "sink":
                sink = n.op
            else:
                post.append(n.op)
        chains.append(
            Branch(label=q.label or f"q{i}", maps=maps, sink=sink, post=post)
        )
        id_lists.append(map_ids)
    labels = [c.label for c in chains]
    if len(set(labels)) != len(labels):
        for i, c in enumerate(chains):
            c.label = f"{c.label}#{i}"

    # Shared logical prefix, by node identity (single query: all maps).
    if len(chains) == 1:
        shared_len = len(id_lists[0])
    else:
        shared_len = 0
        limit = min(len(ids) for ids in id_lists)
        while shared_len < limit and all(
            ids[shared_len] == id_lists[0][shared_len] for ids in id_lists
        ):
            shared_len += 1

    notes: list[str] = []

    # Rule 1: pushdown of a leading selection/subsample run.
    select: tuple[int, int] | None = None
    step = 1
    n_push = 0
    for op in chains[0].maps[:shared_len]:
        if isinstance(op, ChannelSelectOp):
            base = 0 if select is None else select[0]
            width = None if select is None else select[1] - select[0]
            if width is not None and op.hi > width:
                break  # invalid composition; let the eager run raise
            select = (base + op.lo, base + op.hi)
            n_push += 1
        elif isinstance(op, SubsampleOp):
            step *= op.step
            n_push += 1
        else:
            break
    if n_push:
        lo, hi = select if select is not None else (0, -1)
        what = []
        if select is not None:
            what.append(f"channels[{lo}:{hi}]")
        if step > 1:
            what.append(f"1-in-{step} samples")
        notes.append(
            f"pushdown: {' + '.join(what)} lowered into a strided source "
            f"read ({n_push} op{'s' if n_push > 1 else ''} absorbed)"
        )

    shared_rest = chains[0].maps[n_push:shared_len]

    # Rule 2: split the shared prefix from the branch tails.
    if len(chains) > 1:
        prefix = list(shared_rest)
        branches = [
            Branch(
                label=c.label,
                maps=list(c.maps[shared_len:]),
                sink=c.sink,
                post=list(c.post),
            )
            for c in chains
        ]
        if shared_len > n_push or n_push:
            notes.append(
                f"cse: {shared_len}-op shared prefix computed once per "
                f"chunk for {len(chains)} branches"
            )
    else:
        prefix = []
        c = chains[0]
        branches = [
            Branch(
                label=c.label,
                maps=list(c.maps[n_push:]),
                sink=c.sink,
                post=list(c.post),
            )
        ]
    payload = root.payload
    return PhysicalPlan(
        source=payload.get("source"),
        fs=payload.get("fs"),
        chains=chains,
        shared_len=shared_len,
        pushed_ops=n_push,
        select=select,
        step=step,
        prefix=prefix,
        branches=branches,
        chunk_samples=chunk_samples,
        threads=int(threads),
        frame=CoordFrame(
            channel_lo=select[0] if select is not None else 0,
            channel_hi=select[1] if select is not None else None,
            sample_step=step,
        ),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _resolve_execution(plan: PhysicalPlan, src) -> int:
    """The raw-level chunk length this run will use: the plan's explicit
    length, else the default byte budget shared by the blocks held at
    once."""
    chunk = plan.chunk_samples
    if chunk is None:
        chunk = auto_chunk_samples(
            src.n_channels,
            src.n_samples,
            budget_bytes=DEFAULT_CHUNK_BYTES // in_flight(plan.threads),
        )
    chunk = int(chunk)
    if chunk < 1:
        raise ConfigError("chunk_samples must be >= 1")
    if plan.step > 1:
        # Raw chunks must align on the subsample lattice so optimized and
        # eager runs tile identical core targets.
        chunk = _ceil_div(chunk, plan.step) * plan.step
    return chunk


def execute(
    plan: PhysicalPlan,
    source: object = None,
    naive: bool = False,
    timer: Timer | None = None,
    iostats: IOStats | None = None,
    policy: FailurePolicy | None = None,
) -> list[PipelineResult]:
    """Run a physical plan; returns one result per branch (query order).

    This only chooses what :func:`~repro.core.pipeline.run_chunks` runs.
    The optimized lowering hands it the pushed-down
    :class:`~repro.storage.chunks.SourceView`, the shared prefix and
    the branch tails.  ``naive=True`` is the equivalence reference: the
    raw source, the eager chains split at the logical shared prefix, and
    that prefix recomputed per branch (for a
    single query: exactly the eager ``StreamPipeline`` run).  ``source``
    overrides the plan's scan payload (e.g. an already-open source).
    Either way the kernel validates the operators' interval algebra on the
    chunking it is about to run, before its first read.
    """
    spec = source if source is not None else plan.source
    if spec is None:
        raise ConfigError("plan has no source: pass one to execute()")
    src = as_source(spec, fs=plan.fs)
    close_after = not isinstance(spec, type(src)) and isinstance(
        spec, (str, os.PathLike)
    )
    try:
        chunk = _resolve_execution(plan, src)
        if naive:
            run_src = src
            prefix = plan.chains[0].maps[: plan.shared_len]
            branches = [
                Branch(c.label, c.maps[plan.shared_len :], c.sink, c.post)
                for c in plan.chains
            ]
        else:
            prefix, branches = plan.prefix, plan.branches
            run_src = src
            if plan.pushed:
                lo, hi = plan.select or (0, src.n_channels)
                run_src = SourceView(src, lo, hi, step=plan.step)
                chunk = max(1, chunk // plan.step)
        return run_chunks(
            run_src, prefix, branches, chunk, plan.threads, timer, iostats,
            policy, share_prefix=not naive,
        )
    finally:
        if close_after:
            src.close()


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


def _describe_source(source: Any) -> str:
    if source is None:
        return "<bound at execute>"
    path = getattr(source, "path", None)
    if path:
        return os.path.basename(os.fspath(path))
    if isinstance(source, (str, os.PathLike)):
        return os.path.basename(os.fspath(source))
    if isinstance(source, np.ndarray):
        return f"array{source.shape}"
    return type(source).__name__


def explain(plan: PhysicalPlan) -> str:
    """A human-readable before/after dump of the plan's rewrites."""
    lines = [f"== logical plan ({len(plan.chains)} branch"
             f"{'es' if len(plan.chains) > 1 else ''}) =="]
    lines.append(f"scan {_describe_source(plan.source)}")
    if len(plan.chains) > 1 and plan.shared_len:
        shared = plan.chains[0].maps[: plan.shared_len]
        lines.append("shared: " + " | ".join(op.name for op in shared))
    for c in plan.chains:
        ops = c.maps[plan.shared_len :] if len(plan.chains) > 1 else c.maps
        names = [op.name for op in ops]
        if c.sink is not None:
            names.append(c.sink.name)
        names.extend(op.name for op in c.post)
        lines.append(f"branch {c.label}: " + " | ".join(names or ["<pass>"]))

    lines.append("== physical plan ==")
    if plan.pushed:
        lo, hi = plan.select if plan.select is not None else (0, -1)
        parts = []
        if plan.select is not None:
            parts.append(f"channels[{lo}:{hi}]")
        if plan.step > 1:
            parts.append(f"step={plan.step}")
        lines.append(
            f"source: SourceView({', '.join(parts)}) — strided backend read"
        )
    else:
        lines.append("source: full-resolution scan")
    if plan.prefix:
        lines.append(
            "shared prefix (once per chunk): "
            + " | ".join(op.name for op in plan.prefix)
        )
    for b in plan.branches:
        names = [op.name for op in b.maps]
        if b.sink is not None:
            names.append(b.sink.name)
        names.extend(op.name for op in b.post)
        lines.append(f"branch {b.label}: " + " | ".join(names or ["<pass>"]))
    chunk = plan.chunk_samples if plan.chunk_samples is not None else "auto"
    if computes_nothing(plan.prefix, plan.branches):
        lines.append(
            "chunking: none — nothing to compute, so one read of the whole "
            f"record ({chunk} samples per chunk only under a FailurePolicy, "
            "whose gaps are reported by chunk)"
        )
    else:
        lines.append(f"chunking: {chunk} samples, threads={plan.threads}")
    for note in plan.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
