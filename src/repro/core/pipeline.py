"""The streaming chunked execution core.

DASSA's headline execution claim (Fig. 9) is that the *whole* DSP chain
runs fused over each data chunk, instead of MATLAB's stage-at-a-time
whole-array materialisation.  This module is that execution core:

* :class:`Operator` — one stage of a ``(channels, time)`` pipeline that
  declares its **overlap contract**: how many input samples of context
  (halo / ghost zone) each produced output needs (``in_needed``), how
  input intervals map to output intervals (``out_core`` / ``out_full``,
  covering decimation and strided window grids), and optional **carried
  state** filled by a streaming pre-pass (e.g. the global linear fit a
  ``detrend`` subtracts).
* :class:`SinkOp` — a terminal reduction with carried state that consumes
  the streamed chunks (an FFT accumulator, an NCF stacker); operators
  after a sink run once on its finalised output.
* :func:`run_chunks` — the kernel, the one loop that walks a source in
  chunks and runs operators: a shared map prefix fanned out to N
  :class:`Branch` tails.  Up front it plans every chunk's owned target
  per branch by composing ``out_core`` forwards and ``in_needed``
  backwards and validates that plan — tiling, containment, coverage —
  before anything is read; per chunk it reads the union interval once
  from a :class:`~repro.storage.chunks.ChunkSource` (VCA, ``SourceView``,
  array — halo re-reads hit the hdf5lite block cache), runs the whole chain on
  it, applies the per-chunk :class:`~repro.faults.policy.FailurePolicy`,
  and stitches the ghost zones away — between operators, so no stage
  computes on a predecessor's fringe — so streamed output is numerically
  equivalent to whole-array output.  With ``threads > 1`` a run owns one
  worker pool and the chunk is the unit of parallel work: the calling
  thread reads chunk *k+1* while up to ``threads`` earlier chunks run
  their chains on the pool, and chunks are settled in plan order
  (:func:`_stream`); only a plan of a single chunk splits rows instead,
  in the ApplyMT structure (:func:`_run_rows`).  Everything else is a
  lowering onto it:
  :func:`repro.core.optimizer.execute` chooses source, prefix, tails and
  chunk length — the door every analysis of the ``DASSA`` facade goes
  through, eager calls included (they are one-branch plans); a
  hand-built chain is ``run_chunks(src, [], [Branch.of(ops)], chunk)``,
  the reference the tests hold the facade to; and
  :class:`IncrementalRunner` drives the kernel's planning helpers and
  row-split chain runner over an unbounded record with a carried tail
  buffer.
  :meth:`Branch.of` is the one place an operator list is split into
  maps, sink and post stages.
* :func:`run_materialized` — the reference the tests compare against:
  the same operator graph executed MATLAB style, one stage at a time
  over the whole array, optionally with interpreted per-channel loops.
  Both Fig. 9 execution styles are literally the same graph under
  different chunking policies.

Every run reports a :class:`PipelineProfile`: per-stage wall time
(:class:`~repro.utils.timer.Timer` phases), bytes streamed/read, and the
peak resident array bytes — the quantity chunking is meant to bound.
"""

from __future__ import annotations

import base64
import hashlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.arrayudf.fuse import partition_row_blocks
from repro.errors import ConfigError
from repro.faults.policy import RETRYABLE, FailurePolicy, retry_call
from repro.storage.chunks import ChunkSource, iter_intervals
from repro.storage.gaps import GapMap
from repro.utils import cpus
from repro.utils.iostats import IOStats
from repro.utils.timer import Timer

__all__ = [
    "OpContext",
    "Operator",
    "SinkOp",
    "PipelineProfile",
    "PipelineResult",
    "Branch",
    "run_chunks",
    "in_flight",
    "IncrementalRunner",
    "run_materialized",
]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _clamp(lo: int, hi: int, total: int) -> tuple[int, int]:
    lo = min(max(lo, 0), total)
    hi = min(max(hi, lo), total)
    return lo, hi


# ---------------------------------------------------------------------------
# operator contract
# ---------------------------------------------------------------------------


@dataclass
class OpContext:
    """What an operator knows about the block it was handed.

    ``start``/``stop`` are the absolute sample interval of the block at
    this operator's *input* rate; ``total`` is the whole record's length
    at that rate, ``fs`` its sampling rate.  ``channel_lo`` is the
    absolute channel index of row 0 (thread partitions hand operators row
    slices).  ``state`` is whatever :meth:`Operator.bind` or the pre-pass
    produced.  ``interpreted`` asks for the MATLAB-faithful per-channel
    loop (only ever set by :func:`run_materialized`).
    """

    start: int
    stop: int
    total: int
    fs: float = 0.0
    channel_lo: int = 0
    state: Any = None
    interpreted: bool = False

    @property
    def whole(self) -> bool:
        return self.start == 0 and self.stop == self.total


class Operator:
    """One stage of a streaming pipeline over ``(channels, time)`` blocks.

    Subclasses implement :meth:`apply` and declare their geometry:

    ``halo``
        ``(left, right)`` input samples of context each produced output
        needs beyond its own interval (filter settling, window lookback).
    ``decimate``
        ``q``: output ``j`` corresponds to input ``j * q`` (1 for
        same-rate stages).  Stages with a non-affine grid (strided window
        centres) override the interval methods instead.
    ``channel_halo``
        ``K``: output row ``r`` needs input rows ``r .. r + 2K`` (0 for
        channel-wise stages).

    The three interval methods define the stitching algebra; the runner
    clamps every returned interval to the valid range:

    * ``out_core(lo, hi)`` — which outputs a core input interval *owns*
      (must tile the output axis over consecutive chunks),
    * ``out_full(a, b)`` — which outputs :meth:`apply` produces from a
      padded block covering ``[a, b)`` (core plus approximate fringe),
    * ``in_needed(lo, hi)`` — which inputs are needed to produce outputs
      ``[lo, hi)`` *accurately*.

    The fringe is produced but never forwarded: the runner cuts every
    output to the interval the next level's ``in_needed`` asked for
    before the next :meth:`apply`, so an operator's ``ctx.start/stop`` is
    always exactly its planned need, never a neighbour's settle zone.
    """

    name = "op"
    halo: tuple[int, int] = (0, 0)
    decimate: int = 1
    channel_halo: int = 0
    needs_prepass = False
    #: An operator is *stream-safe* when its output on any interval depends
    #: only on the declared input halo — never on the record's final length
    #: (``ctx.total``) or on whole-record statistics.  Only stream-safe
    #: operators may run incrementally over an unbounded record
    #: (:class:`IncrementalRunner`), where the end of the record is not
    #: known until :meth:`IncrementalRunner.flush`.
    stream_safe = True

    # -- geometry -----------------------------------------------------------
    def out_total(self, total_in: int) -> int:
        return _ceil_div(total_in, self.decimate)

    def out_fs(self, fs_in: float) -> float:
        return fs_in / self.decimate if fs_in else fs_in

    def out_channels(self, channels_in: int) -> int:
        return channels_in - 2 * self.channel_halo

    def in_rows(self, lo: int, hi: int) -> tuple[int, int]:
        return lo, hi + 2 * self.channel_halo

    def out_core(self, lo: int, hi: int) -> tuple[int, int]:
        q = self.decimate
        return _ceil_div(lo, q), _ceil_div(hi, q)

    def out_full(self, a: int, b: int) -> tuple[int, int]:
        return self.out_core(a, b)

    def in_needed(self, lo: int, hi: int) -> tuple[int, int]:
        q = self.decimate
        left, right = self.halo
        return lo * q - left, (hi - 1) * q + 1 + right

    # -- state --------------------------------------------------------------
    def bind(self, n_channels: int, total_in: int, fs_in: float) -> Any:
        """Per-run state computed from the record's geometry (no data)."""
        return None

    def prepass_init(self, n_channels: int, total_in: int) -> Any:
        raise NotImplementedError

    def prepass_update(self, acc: Any, chunk: np.ndarray, start: int) -> None:
        raise NotImplementedError

    def prepass_finalize(self, acc: Any) -> Any:
        raise NotImplementedError

    # -- execution ----------------------------------------------------------
    def apply(self, data: np.ndarray, ctx: OpContext) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class SinkOp:
    """A terminal reduction over the streamed chunks (carried state).

    The runner calls ``init`` once, ``consume`` per core chunk (in time
    order, ghost zones already stitched away), and ``finalize`` once;
    operators after the sink are applied to the finalised array.
    ``resident_bytes`` is the sink's contribution to the peak-memory
    accounting (accumulation buffers).
    """

    name = "sink"

    def init(self, n_channels: int, total_in: int, fs_in: float) -> Any:
        raise NotImplementedError

    def consume(self, state: Any, chunk: np.ndarray, ctx: OpContext) -> None:
        raise NotImplementedError

    def finalize(self, state: Any) -> Any:
        raise NotImplementedError

    def resident_bytes(self, state: Any) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass
class PipelineProfile:
    """Per-run execution profile: where the time and the bytes went."""

    phases: dict[str, float] = field(default_factory=dict)
    n_chunks: int = 0
    chunk_samples: int = 0
    threads: int = 1
    bytes_streamed: int = 0
    bytes_read: int | None = None
    peak_resident_bytes: int = 0
    output_bytes: int = 0
    #: Per-chunk branch executions served by a shared-prefix result
    #: instead of recomputing it (0 for a single chain).
    cse_hits: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.phases.values())

    def as_dict(self) -> dict:
        return {
            "phases": dict(self.phases),
            "n_chunks": self.n_chunks,
            "chunk_samples": self.chunk_samples,
            "threads": self.threads,
            "bytes_streamed": self.bytes_streamed,
            "bytes_read": self.bytes_read,
            "peak_resident_bytes": self.peak_resident_bytes,
            "output_bytes": self.output_bytes,
            "cse_hits": self.cse_hits,
            "total_seconds": self.total_seconds,
        }


@dataclass
class PipelineResult:
    """``output`` plus the run's profile; ``gaps`` (present when the run
    used a ``continue`` :class:`~repro.faults.policy.FailurePolicy`) lists
    final-level output spans filled because their chunk stayed broken
    after retries — coordinates are *output* samples, unlike the
    input-sample gaps a degraded :class:`~repro.storage.vca.VCAHandle`
    reports."""

    output: Any
    profile: PipelineProfile
    gaps: GapMap | None = None


# ---------------------------------------------------------------------------
# the kernel: the one loop that walks a source in chunks and runs operators
# ---------------------------------------------------------------------------


@dataclass
class Branch:
    """One output of a kernel run: the map operators after the shared
    prefix, an optional sink, and the operators applied once to the
    sink's finalised output."""

    label: str
    maps: list
    sink: SinkOp | None = None
    post: list = field(default_factory=list)

    @classmethod
    def of(cls, operators: Iterable, label: str = "") -> "Branch":
        """Split an operator list at its optional :class:`SinkOp`: maps
        before it, post stages after.  Refuses a second sink, anything
        that is not an operator, and duplicate names (profile phases are
        keyed by ``op.name``).  An empty list is a pure read."""
        branch = cls(label, [])
        names: set[str] = set()
        for op in operators:
            if isinstance(op, SinkOp):
                if branch.sink is not None:
                    raise ConfigError("a chain can hold at most one sink")
                branch.sink = op
            elif isinstance(op, Operator):
                (branch.maps if branch.sink is None else branch.post).append(op)
            else:
                raise ConfigError(f"not an operator: {op!r}")
            if op.name in names:
                raise ConfigError(f"duplicate operator name {op.name!r}")
            names.add(op.name)
        return branch


def computes_nothing(prefix: list, branches: list[Branch]) -> bool:
    """True for a plan that only moves samples: no shared prefix and one
    branch with neither maps nor a sink.  :func:`run_chunks` reads such a
    plan in one piece instead of chunk by chunk."""
    return (
        not prefix
        and len(branches) == 1
        and not branches[0].maps
        and branches[0].sink is None
    )


def _levels(
    maps: list, n_channels: int, total: int, fs: float
) -> tuple[list[int], list[float], list[int]]:
    """Record length, sampling rate and channel count at every level of a
    map chain fed ``(n_channels, total)`` samples at ``fs``."""
    totals, rates, channels = [total], [fs], [n_channels]
    for op in maps:
        totals.append(op.out_total(totals[-1]))
        rates.append(op.out_fs(rates[-1]))
        channels.append(op.out_channels(channels[-1]))
        if channels[-1] < 1:
            raise ConfigError(
                f"operator {op.name!r} needs more channels than the "
                f"{channels[-2]} available"
            )
    return totals, rates, channels


def _needed(
    maps: list, target: tuple[int, int], totals: list[int] | None
) -> list[tuple[int, int]]:
    """Per-level padded input intervals required to produce final-level
    ``target`` accurately: ``in_needed`` composed backwards.

    Batch runs clamp both edges at the true record edges, ``totals``.
    With ``totals=None`` the record has not ended: only the left edge
    (sample 0, a true edge) is clamped and the right edge stays *open* —
    clamping it would diverge from the eventual batch run."""
    needs = [target]
    for k in reversed(range(len(maps))):
        lo, hi = maps[k].in_needed(*needs[0])
        needs.insert(
            0, (max(lo, 0), hi) if totals is None else _clamp(lo, hi, totals[k])
        )
    return needs


def _plan_chunks(
    maps: list, totals: list[int], chunk: int
) -> list[tuple[tuple[int, int], list[tuple[int, int]] | None]]:
    """The validated chunk plan of one chain over ``totals[0]`` source
    samples: per source chunk, the final-level ``target`` it *owns*
    (``out_core`` composed forwards, clamped at every level) and the
    per-level padded ``needs`` that produce it (``None`` when the target
    is empty and the chunk is skipped).

    Before anything is read, the operators' declared interval algebra is
    checked on exactly these chunks, level by level:

    * **tiling** — consecutive owned intervals share their boundary (no
      owned output is dropped or produced twice);
    * **containment** — the padded production ``out_full(in_needed(tgt))``
      (both clamped, as :func:`_run_chain` clamps) contains what the next
      level needs, so trimming can never fail at run time;
    * **coverage** — the final chunk's owned interval reaches the level's
      total.

    Raises :class:`~repro.errors.ConfigError` naming the operator and the
    first violated invariant.
    """
    plan: list[tuple[tuple[int, int], list[tuple[int, int]] | None]] = []
    ends = [0] * (len(maps) + 1)
    for interval in iter_intervals(totals[0], chunk):
        for k, op in enumerate(maps):
            c0, c1 = interval
            lo, hi = interval = _clamp(*op.out_core(c0, c1), totals[k + 1])
            if lo != ends[k + 1]:
                raise ConfigError(
                    f"operator {op.name!r}: out_core does not tile — chunk "
                    f"[{c0}, {c1}) owns [{lo}, {hi}) but the previous chunk "
                    f"ended at {ends[k + 1]} (total={totals[k]}, chunk={chunk})"
                )
            ends[k + 1] = hi
        if interval[1] <= interval[0]:
            plan.append((interval, None))
            continue
        needs = _needed(maps, interval, totals)
        for k, op in enumerate(maps):
            lo, hi = needs[k + 1]
            fa, fb = _clamp(*op.out_full(*needs[k]), totals[k + 1])
            if not (fa <= lo and hi <= fb):
                raise ConfigError(
                    f"operator {op.name!r}: containment violated — target "
                    f"[{lo}, {hi}) needs inputs [{needs[k][0]}, {needs[k][1]}) "
                    f"but out_full produces only [{fa}, {fb}) "
                    f"(total={totals[k]})"
                )
        plan.append((interval, needs))
    for k, op in enumerate(maps):
        if ends[k + 1] != totals[k + 1]:
            raise ConfigError(
                f"operator {op.name!r}: out_core covers [0, {ends[k + 1]}) but "
                f"out_total({totals[k]}) = {totals[k + 1]} (chunk={chunk})"
            )
    return plan


def _run_chain(
    maps: list,
    block: np.ndarray,
    needs: list[tuple[int, int]],
    totals: list[int],
    rates: list[float],
    states: list,
    channel_lo: int | list[int],
    timer: Timer | None,
) -> tuple[np.ndarray, int]:
    """Run ``maps`` level by level on a block covering ``needs[0]``.

    ``needs`` are the per-level intervals of :func:`_needed`: operator
    ``k`` is applied to exactly ``needs[k]`` and its output is cut to
    ``needs[k + 1]`` before the next operator sees it — the fringe an
    operator produces beyond what the next level asked for is dropped on
    the spot, never computed on.  Returns ``(output, peak_bytes)`` with
    ``output`` covering ``needs[len(maps)]`` and ``peak_bytes`` the
    largest in+out footprint any stage held.  An empty chain hands the
    block back untouched.

    ``channel_lo`` is either one absolute row offset shared by every
    level (correct while each level keeps row 0 aligned) or a per-level
    list, needed once a channel-mapping operator (e.g. an eager channel
    selection) shifts row origins between levels."""
    cur = block
    held = peak = block.nbytes  # ``held``: the untrimmed array ``cur`` views
    per_level = isinstance(channel_lo, list)
    for k, op in enumerate(maps):
        a, b = needs[k]
        ctx = OpContext(
            start=a,
            stop=b,
            total=totals[k],
            fs=rates[k],
            channel_lo=channel_lo[k] if per_level else channel_lo,
            state=states[k],
        )
        if timer is not None:
            with timer.phase(op.name):
                nxt = op.apply(cur, ctx)
        else:
            nxt = op.apply(cur, ctx)
        lo, hi = _clamp(*op.out_full(a, b), totals[k + 1])
        if nxt.shape[-1] != hi - lo:
            raise ConfigError(
                f"operator {op.name!r} produced {nxt.shape[-1]} samples "
                f"for interval [{lo}, {hi})"
            )
        peak = max(peak, held + nxt.nbytes)
        held = nxt.nbytes
        ta, tb = needs[k + 1]
        if not (lo <= ta and tb <= hi):
            raise ConfigError(
                f"operator {op.name!r} produced [{lo}, {hi}) but the next "
                f"level needs [{ta}, {tb})"
            )
        cur = nxt[..., ta - lo : tb - lo]
    return cur, peak


def _run_rows(
    pool: ThreadPoolExecutor | None,
    workers: int,
    maps: list,
    out_rows: int,
    block: np.ndarray,
    needs: list[tuple[int, int]],
    totals: list[int],
    rates: list[float],
    states: list,
    timer: Timer | None,
) -> tuple[np.ndarray, int]:
    """:func:`_run_chain`, with the chain's ``out_rows`` output rows split
    statically into ``workers`` tasks on ``pool`` when there is one (the
    ApplyMT structure — how a one-chunk plan uses ``threads``, and how
    :class:`IncrementalRunner` runs each emission): each task runs the
    whole chain on the input rows its slice needs, and the slices are
    concatenated in row order."""
    rows = partition_row_blocks(out_rows, workers) if pool is not None and maps else ()
    if len(rows) < 2:
        return _run_chain(maps, block, needs, totals, rates, states, 0, timer)

    def task(lo: int, hi: int) -> tuple[np.ndarray, int, Timer]:
        offs = [0] * len(maps)
        for k in range(len(maps) - 1, -1, -1):
            lo, hi = maps[k].in_rows(lo, hi)
            offs[k] = lo
        sub = Timer() if timer is not None else None
        out, peak = _run_chain(
            maps, block[lo:hi], needs, totals, rates, states, offs, sub
        )
        return out, peak, sub

    done = [f.result() for f in [pool.submit(task, lo, hi) for lo, hi in rows]]
    if timer is not None:
        for _out, _peak, sub in done:
            timer.merge(sub)
    return (
        np.concatenate([out for out, _peak, _sub in done], axis=0),
        max(block.nbytes, sum(peak for _out, peak, _sub in done)),
    )


def _stream(
    pool: ThreadPoolExecutor | None,
    depth: int,
    items: Iterable,
    read: Callable,
    work: Callable,
    timer: Timer,
) -> Iterator[tuple]:
    """Yield ``(item, work(item, read(item), timer))`` for every item, in
    order: the read-ahead loop of the kernel and of its pre-pass.

    Without a pool that is all of it.  With one, the item is the unit of
    parallel work: the calling thread reads item *k+1* while up to
    ``depth`` earlier items run ``work`` on the pool (one more waits in
    the pool's queue holding only its block, so a worker that finishes
    never waits for the caller), and results are handed back strictly in
    item order — sinks refuse anything else and float sums keep their
    order.  Every ``read`` happens on the calling thread: sources count
    bytes, hand files over and record degraded-read gaps without a lock.
    Each task times into a :class:`Timer` of its own, merged into
    ``timer`` as it is handed back; a task's exception is raised here, on
    the calling thread, as the type it was raised with.  The caller owns
    the pool and shuts it down."""
    if pool is None:
        for item in items:
            yield item, work(item, read(item), timer)
        return
    pending: deque = deque()

    def settle() -> tuple:
        item, future, sub = pending.popleft()
        try:
            return item, future.result()
        finally:
            timer.merge(sub)

    for item in items:
        block = read(item)
        sub = Timer()
        pending.append((item, pool.submit(work, item, block, sub), sub))
        if len(pending) > depth:
            yield settle()
    while pending:
        yield settle()


def _run_post(
    post: list, output: Any, fs: float, timer: Timer, interpreted: bool
) -> Any:
    for op in post:
        n = output.shape[-1] if isinstance(output, np.ndarray) else 0
        ctx = OpContext(start=0, stop=n, total=n, fs=fs, interpreted=interpreted)
        with timer.phase(op.name):
            output = op.apply(output, ctx)
    return output


def _prepass(
    src: ChunkSource,
    chunk: int,
    maps: list,
    totals: list[int],
    rates: list[float],
    channels: list[int],
    states: list,
    timer: Timer,
    pool: ThreadPoolExecutor | None,
    depth: int,
    policy: FailurePolicy | None,
) -> None:
    """Fill the whole-record state of every ``needs_prepass`` operator by
    streaming the chain below it once, chunk by chunk, through
    :func:`_stream`: the level is computed per chunk (on ``pool`` when the
    chain below has operators), ``prepass_update`` is applied on the
    calling thread in chunk order.  Each read gets ``policy``'s retries."""
    retries, backoff = (policy.retries, policy.backoff) if policy else (0, 0.0)
    for j, op in enumerate(maps):
        if not op.needs_prepass:
            continue
        below = maps[:j]
        acc = op.prepass_init(channels[j], totals[j])

        def read(item: tuple) -> np.ndarray:
            return retry_call(lambda: src.read(*item[1][0]), retries, backoff)

        def level(item: tuple, block: np.ndarray, _timer: Timer) -> np.ndarray:
            return _run_chain(
                below, block, item[1], totals, rates, states, 0, None
            )[0]

        with timer.phase(f"{op.name}:prepass"):
            plan = [
                item for item in _plan_chunks(below, totals, chunk)
                if item[1] is not None
            ]
            for (tgt, _needs), out in _stream(
                pool if below else None, depth, plan, read, level, timer
            ):
                op.prepass_update(acc, out, tgt[0])
        states[j] = op.prepass_finalize(acc)


@dataclass
class _BranchRun:
    """A branch's per-run geometry and carried state.  ``tot``/``rate``/
    ``ch`` are its tail levels (level 0 is the prefix output);
    ``chain``/``chain_tot`` are the whole prefix+tail chain the chunk
    plan (:func:`_plan_chunks`) composes through.  ``output`` is where a
    branch without a sink lands its chunks."""

    branch: Branch
    maps: list
    tot: list[int]
    rate: list[float]
    ch: list[int]
    states: list
    chain: list
    chain_tot: list[int]
    sink_state: Any = None
    output: np.ndarray | None = None
    gaps: GapMap | None = None


@dataclass
class _Step:
    """One source chunk of a run: the branches it feeds (``active``: run,
    owned target, per-level needs), the per-level ``hull`` the shared
    prefix must produce for them, and the attempts its read and chain
    have lost to retryable faults so far (under a failure policy)."""

    active: list
    hull: list[tuple[int, int]]
    failed: int = 0


def in_flight(threads: int) -> int:
    """How many chunk blocks a run with ``threads`` holds at once:
    ``threads`` chains on the pool plus the block read ahead of them (one
    when the run is serial).  A chunk length derived from a byte budget
    divides the budget by this, so the budget keeps meaning resident
    bytes."""
    return threads + 1 if threads > 1 else 1


def run_chunks(
    src: ChunkSource,
    prefix: list,
    branches: list[Branch],
    chunk: int,
    threads: int = 1,
    timer: Timer | None = None,
    iostats: IOStats | None = None,
    policy: FailurePolicy | None = None,
    share_prefix: bool = True,
) -> list[PipelineResult]:
    """Stream ``src`` through a shared map ``prefix`` fanned out to
    ``branches``; returns one result per branch, all sharing one profile.

    Every branch's chunk plan — the owned target of each source chunk
    through its whole chain (``out_core`` forwards, ``in_needed``
    backwards) — is computed and validated by :func:`_plan_chunks` before
    the first read (the ``plan`` phase of the profile), so every lowering
    is checked on the chunking it actually runs.  Per source chunk the
    needs are unioned at the source and at the prefix/tail boundary, the
    union interval is read once, the prefix runs on it, and every branch
    tail consumes its slice of the prefix output.  A lone branch's maps
    are the prefix (its tail is empty), so a single chain may hold
    pre-pass operators anywhere; with several branches they must sit in
    the shared prefix.  ``share_prefix=False`` recomputes the prefix per
    branch with identical arguments — the reference that makes hoisting
    it bitwise safe by construction.

    **Threads.**  With ``threads > 1`` and something to compute, the call
    owns one worker pool, shut down (remaining tasks drained) before it
    returns or raises.  The *chunk* is the unit of parallel work
    (:func:`_stream`): the calling thread walks the plan and reads chunk
    *k+1* while up to ``threads`` earlier chunks each run their whole
    prefix-plus-tails chain as one task — :func:`_run_chain` straight
    through, so a multi-chunk run is bit-identical to ``threads=1`` by
    construction — and chunks are settled strictly in plan order on the
    calling thread: sinks consume, outputs land, gaps are recorded.  The
    pre-pass rides the same loop.  A plan of one chunk has no second
    chunk to overlap with and splits the chain's output rows over the
    pool instead (:func:`_run_rows`).  ``profile.threads`` is the workers
    actually used: ``min(threads, n_chunks)``, the row count for one
    chunk, 1 when there is nothing to compute.  Up to ``threads`` chunk
    working sets and one block read ahead are resident at once
    (:func:`in_flight`), and ``peak_resident_bytes`` reports their sum
    plus outputs and sinks.

    A run that computes nothing (:func:`computes_nothing`) and has no
    failure policy is not chunked: ``chunk`` becomes the whole record, so
    the loop below runs once and the block the source returns is the
    result.

    With a :class:`~repro.faults.policy.FailurePolicy`, each chunk has
    ``retries + 1`` attempts that its read and its chain draw on
    together: a failed read is retried where it happens, a chain that
    fails on a worker is re-run — read and chain, on the calling thread,
    when its turn to settle comes — under the attempts left, which is
    what one retried read-plus-compute call spends, so retry counts, fills
    and gaps do not depend on ``threads``.  A chunk that stays broken
    either raises the typed error (``fail_fast``) or fills every branch's
    owned span with ``policy.fill``, recorded in that branch's
    :attr:`~PipelineResult.gaps` in its own output coordinates.  Each
    pre-pass read gets the same ``retries``; one still broken after them
    raises the typed error in both modes, because whole-record state
    cannot be reported as a gap.
    """
    if src.n_samples < 1 or src.n_channels < 1:
        raise ConfigError("cannot stream an empty source")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    if chunk < 1:
        raise ConfigError("chunk_samples must be >= 1")
    timer = timer if timer is not None else Timer()
    if policy is None and computes_nothing(prefix, branches):
        # Chunking bounds operator working sets.  With nothing to run the
        # only resident array is the output, so it is read in one piece:
        # the block the source returns is the result, whole-file rows
        # merge into a few requests and every stored chunk is fetched,
        # verified and decoded exactly once.  (Under a FailurePolicy the
        # chunk is the unit a gap is reported in, so chunks stay.)
        chunk = src.n_samples
    chunk = min(chunk, src.n_samples)
    n_chunks = _ceil_div(src.n_samples, chunk)
    streamed_before = src.bytes_streamed
    io_before = iostats.total_bytes_read() if iostats is not None else None

    if len(branches) == 1:
        prefix = list(prefix) + list(branches[0].maps)
        tails: list[list] = [[]]
    else:
        tails = [list(b.maps) for b in branches]
    n_prefix = len(prefix)
    p_tot, p_rate, p_ch = _levels(prefix, src.n_channels, src.n_samples, src.fs)
    p_states = [
        op.bind(p_ch[k], p_tot[k], p_rate[k]) for k, op in enumerate(prefix)
    ]
    collect_gaps = policy is not None and not policy.fail_fast
    runs: list[_BranchRun] = []
    for branch, maps in zip(branches, tails):
        tot, rate, ch = _levels(maps, p_ch[-1], p_tot[-1], p_rate[-1])
        for op in maps:
            if op.needs_prepass and n_chunks > 1:
                raise ConfigError(
                    f"pre-pass operator {op.name!r} must sit in the shared "
                    f"prefix of a multi-output plan (branch {branch.label!r})"
                )
        runs.append(
            _BranchRun(
                branch=branch,
                maps=maps,
                tot=tot,
                rate=rate,
                ch=ch,
                states=[
                    op.bind(ch[k], tot[k], rate[k]) for k, op in enumerate(maps)
                ],
                chain=prefix + maps,
                chain_tot=p_tot + tot[1:],
                gaps=GapMap() if collect_gaps else None,
            )
        )
    steps: list[_Step] = []
    cse_hits = 0
    with timer.phase("plan"):
        plans = [_plan_chunks(r.chain, r.chain_tot, chunk) for r in runs]
        for step in zip(*plans):
            active = [
                (r, tgt, needs)
                for r, (tgt, needs) in zip(runs, step)
                if needs is not None
            ]
            if not active:
                continue
            # What the shared prefix must produce, level by level: the hull
            # of the active branches' needs (one branch: its needs as planned).
            hull = active[0][2]
            if len(active) > 1:
                hull = [
                    (
                        min(needs[k][0] for _, _, needs in active),
                        max(needs[k][1] for _, _, needs in active),
                    )
                    for k in range(n_prefix + 1)
                ]
            steps.append(_Step(active, hull))
            if share_prefix:
                cse_hits += len(active) - 1

    # Workers this run really uses (``profile.threads``).
    if threads == 1 or not (prefix or any(tails)):
        workers = 1
    elif n_chunks > 1:
        workers = min(threads, n_chunks)
    else:
        workers = min(threads, max([p_ch[-1]] + [r.ch[-1] for r in runs]))

    def read(step: _Step) -> np.ndarray:
        with timer.phase("read"):
            return src.read(*step.hull[0])

    def chain(
        step: _Step, block: np.ndarray, timer: Timer
    ) -> tuple[list[np.ndarray], int]:
        """One chunk's compute: the prefix on the hull, then every active
        tail on its slice of the prefix output."""
        Ta = step.hull[n_prefix][0]
        shared = None
        outs, peak = [], 0
        for r, _tgt, needs in step.active:
            if shared is None or not share_prefix:
                shared = _run_rows(
                    by_rows, workers, prefix, p_ch[-1], block, step.hull,
                    p_tot, p_rate, p_states, timer,
                )
            pre, pre_peak = shared
            ta, tb = needs[n_prefix]
            seg = pre[..., ta - Ta : tb - Ta]
            out, tail_peak = _run_rows(
                by_rows, workers, r.maps, r.ch[-1], seg, needs[n_prefix:],
                r.tot, r.rate, r.states, timer,
            )
            outs.append(out)
            peak = max(peak, pre_peak, pre.nbytes + tail_peak - seg.nbytes)
        return outs, peak

    if policy is None:
        fetch, work = read, chain
    else:
        # A chunk that runs out of attempts travels on as its last error.

        def attempt(step: _Step, fn: Callable) -> Any:
            """``fn()`` under the attempts ``step`` has left."""

            def counted() -> Any:
                try:
                    return fn()
                except RETRYABLE:
                    step.failed += 1
                    raise

            return retry_call(
                counted,
                retries=policy.retries - step.failed,
                backoff=policy.backoff * 2**step.failed,
            )

        def fetch(step: _Step) -> np.ndarray | BaseException:
            try:
                return attempt(step, lambda: read(step))
            except RETRYABLE as exc:
                return exc

        def work(step: _Step, block: Any, timer: Timer) -> Any:
            if isinstance(block, BaseException):
                return block
            try:
                return chain(step, block, timer)
            except RETRYABLE as exc:
                step.failed += 1
                return exc

    src_label = getattr(src, "path", None) or "stream"
    sinks = [r for r in runs if r.branch.sink is not None]
    landed_bytes = 0
    peak_resident = 0
    pool = (
        ThreadPoolExecutor(workers, thread_name_prefix="run-chunks")
        if workers > 1
        else None
    )
    # One pool, one way to use it: chunks when the plan has several, the
    # rows of its one chunk otherwise.
    by_chunk, by_rows = (pool, None) if n_chunks > 1 else (None, pool)
    # Resident at once: the working sets of the chunks in flight (the last
    # ``workers`` settled stand for them) plus the block read ahead.
    recent: deque = deque(maxlen=workers)
    ahead = 0
    if by_chunk is not None:
        ahead = 8 * src.n_channels * max(
            (s.hull[0][1] - s.hull[0][0] for s in steps), default=0
        )
    try:
        if n_chunks > 1:
            # A single whole-record chunk needs no pre-pass: every operator
            # sees ctx.whole and computes its global state in place, exactly
            # as the materialised execution does.
            _prepass(
                src, chunk, prefix, p_tot, p_rate, p_ch, p_states, timer,
                by_chunk, workers, policy,
            )
        for r in sinks:
            r.sink_state = r.branch.sink.init(r.ch[-1], r.tot[-1], r.rate[-1])
        for step, done in _stream(by_chunk, workers, steps, fetch, work, timer):
            if isinstance(done, BaseException) and step.failed <= policy.retries:
                # The chain failed on its first run: the attempts left are
                # spent here, read and chain together.
                try:
                    done = attempt(
                        step, lambda: chain(step, read(step), timer)
                    )
                except RETRYABLE as exc:
                    done = exc
            if isinstance(done, BaseException):
                if policy.fail_fast:
                    raise done
                # The chunk stays broken: every branch's owned output span
                # becomes fill, reported as a gap instead of crashing.
                outs = []
                for r, tgt, _needs in step.active:
                    outs.append(np.full((r.ch[-1], tgt[1] - tgt[0]), policy.fill))
                    r.gaps.record(
                        src_label,
                        tgt[0],
                        tgt[1],
                        f"{type(done).__name__}: {done}",
                        attempts=policy.retries + 1,
                    )
                chunk_peak = sum(out.nbytes for out in outs)
            else:
                outs, chunk_peak = done

            for (r, tgt, _needs), out in zip(step.active, outs):
                sink = r.branch.sink
                if sink is not None:
                    ctx = OpContext(
                        start=tgt[0],
                        stop=tgt[1],
                        total=r.tot[-1],
                        fs=r.rate[-1],
                        state=r.sink_state,
                    )
                    with timer.phase(sink.name):
                        sink.consume(r.sink_state, out, ctx)
                elif len(steps) == 1:
                    r.output = np.ascontiguousarray(out)
                    landed_bytes += r.output.nbytes
                    if r.output is out:
                        # kept as it is, not copied: the chunk's peak holds it
                        chunk_peak -= out.nbytes
                else:
                    # Every chunk lands once, in the branch's whole output.
                    if r.output is None:
                        r.output = np.empty((r.ch[-1], r.tot[-1]), dtype=out.dtype)
                        landed_bytes += r.output.nbytes
                    r.output[..., tgt[0] : tgt[1]] = out
            recent.append(chunk_peak)
            resident = sum(recent) + ahead + landed_bytes + sum(
                r.branch.sink.resident_bytes(r.sink_state) for r in sinks
            )
            peak_resident = max(peak_resident, resident)
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    outputs: list = []
    for r in runs:
        sink = r.branch.sink
        if sink is not None:
            with timer.phase(sink.name):
                output: Any = sink.finalize(r.sink_state)
            output = _run_post(
                r.branch.post, output, r.rate[-1], timer, interpreted=False
            )
        elif r.output is not None:
            output = r.output
        else:
            output = np.zeros((r.ch[-1], 0))
        outputs.append(output)
    output_bytes = sum(
        out.nbytes for out in outputs if isinstance(out, np.ndarray)
    )

    profile = PipelineProfile(
        phases=dict(timer.phases),
        n_chunks=n_chunks,
        chunk_samples=chunk,
        threads=workers,
        bytes_streamed=src.bytes_streamed - streamed_before,
        bytes_read=(
            iostats.total_bytes_read() - io_before
            if io_before is not None
            else None
        ),
        peak_resident_bytes=max(peak_resident, output_bytes),
        output_bytes=output_bytes,
        cse_hits=cse_hits,
    )
    return [
        PipelineResult(output=out, profile=profile, gaps=r.gaps)
        for r, out in zip(runs, outputs)
    ]


def _pack_state(state: np.ndarray) -> str:
    """A filter state's float64 bytes (little-endian, C order) as base64:
    bit-exact, and one short string for the checkpoint's JSON encoder
    instead of a float repr per value."""
    return base64.b64encode(
        np.ascontiguousarray(state, dtype="<f8").tobytes()
    ).decode("ascii")


def _unpack_state(text: str, n_channels: int) -> np.ndarray:
    """:func:`_pack_state` inverted to ``(n_state, n_channels)``."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"forward state is not base64 text: {exc}") from exc
    if not raw or len(raw) % (8 * n_channels):
        raise ConfigError(
            f"forward state of {len(raw)} bytes does not fit {n_channels} channels"
        )
    return np.frombuffer(raw, dtype="<f8").reshape(-1, n_channels).astype(np.float64)


def _tail_digest(tail: np.ndarray) -> str:
    """SHA-256 of a ``(channels, n)`` float64 tail's C-order bytes, fed
    row by row so a sliced view is hashed without a contiguous copy."""
    digest = hashlib.sha256()
    for row in tail:
        digest.update(row)
    return digest.hexdigest()


class IncrementalRunner:
    """Drives a map-only operator chain across record-piece boundaries.

    A batch :func:`run_chunks` knows the record's total length up front
    and clamps every halo read at both edges.  A monitoring service
    does not: the record grows one acquisition file at a time and never
    ends until the acquisition stops.  This runner carries the chain's
    state across pieces:

    * a **tail buffer** of raw input samples — the left context (filter
      settle, window lookback) the next emission still needs;
    * **watermarks** ``seen`` (absolute input samples appended) and
      ``emitted`` (absolute final-level outputs produced).

    :meth:`push` appends a piece and returns every final-level output
    interval whose *unclamped* right input need now fits inside the
    buffered record — outputs near the growing edge are deferred until
    the next piece supplies their right halo, which is what makes
    detections at file seams equal a batch run over the concatenated
    record.  :meth:`flush` declares the record finished: the right edge
    becomes a true record edge (clamped exactly as batch execution
    clamps it) and the deferred tail is emitted.

    **A leading zero-phase filter is carried, not re-run.**  When the
    chain's first stage offers ``forward_half`` / ``backward_half`` (a
    :class:`~repro.core.operators.FiltFiltOp`), its causal forward pass
    runs once per sample, continued across pushes from its carried
    state, and the runner keeps the forward-filtered samples the next
    emission needs instead of the raw left halo that re-filtering them
    would take.  Each emission runs only the backward pass, from its
    need's right edge plus the settle length, so interior emissions are
    within the settle tolerance of whole-record ``filtfilt`` (only the
    backward pass settles) and the one :meth:`flush` makes — the forward
    pass continued over the odd extension, the backward pass started at
    the true end — equals it bit for bit.  The raw tail is then what a
    checkpoint needs: the samples from the forward state's position on,
    plus the ``padlen + 1`` the closing odd extension reflects.

    **The chain after the head splits its rows over the process's CPUs.**
    Each emission runs it through :func:`_run_rows`, as a one-chunk batch
    plan does: the output rows are split over a pool of
    :func:`repro.utils.cpus.available` threads, started by the first
    emission that splits into two row blocks or more (never with one CPU,
    where every emission runs on the calling thread).
    The head stays on the calling thread: ``lfilter`` holds the GIL, so
    splitting it buys nothing.  :meth:`flush` and :meth:`close` stop the
    pool, so no thread outlives a record.

    :meth:`export_state` / :meth:`import_state` round-trip the carried
    state through JSON for checkpoint/resume: counters and the forward
    state at ``buf_start`` travel verbatim while the tail samples —
    re-readable from the durable acquisition files — are persisted as a
    SHA-256 digest and verified on import.
    """

    STATE_VERSION = 2

    def __init__(self, operators: list, n_channels: int, fs: float = 0.0):
        branch = Branch.of(operators)
        if branch.sink is not None:
            raise ConfigError("incremental execution supports map-only pipelines")
        for op in branch.maps:
            if op.needs_prepass or not op.stream_safe:
                raise ConfigError(
                    f"operator {op.name!r} is not stream-safe: it depends on "
                    "whole-record state and cannot run over an unbounded record"
                )
        if n_channels < 1:
            raise ConfigError("n_channels must be >= 1")
        self._maps = branch.maps
        self.n_channels = int(n_channels)
        self.fs = float(fs)
        head = branch.maps[0] if branch.maps else None
        #: The leading stage when its forward pass is carried (see above).
        self._head = (
            head
            if callable(getattr(head, "forward_half", None))
            and callable(getattr(head, "backward_half", None))
            else None
        )
        self._buf = np.zeros((self.n_channels, 0))
        self._buf_start = 0
        self._seen = 0
        self._emitted = 0
        self._finished = False
        # Carried head only: forward-filtered samples over [buf_start, the
        # last mark), and the forward state at each piece cut from
        # buf_start on; ``None`` marks where the record opens.
        self._fwd = np.zeros((self.n_channels, 0))
        self._marks: list[tuple[int, np.ndarray | None]] = [(0, None)]
        self._workers = cpus.available()
        self._pool: ThreadPoolExecutor | None = None

    # -- watermarks ---------------------------------------------------------
    @property
    def seen(self) -> int:
        """Absolute input samples appended so far."""
        return self._seen

    @property
    def emitted(self) -> int:
        """Absolute final-level outputs emitted so far."""
        return self._emitted

    @property
    def pending_samples(self) -> int:
        """Buffered raw samples (the tail a checkpoint digests)."""
        return self._seen - self._buf_start

    # -- planning -----------------------------------------------------------
    def _open_needs(
        self, start: int, seen: int, cap: int
    ) -> list[tuple[int, int]] | None:
        """Per-level needs (right edge open) of the longest target
        ``[start, hi)``, ``hi <= cap``, whose whole unclamped input
        context lies within the first ``seen`` samples; ``None`` while no
        output is ready.  One bisection finds the watermark and the plan
        the emission runs on together."""
        maps = self._maps
        best = None
        lo, hi = start, cap
        while lo < hi:
            mid = (lo + hi + 1) // 2
            needs = _needed(maps, (start, mid), None)
            if needs[0][1] <= seen:
                lo, best = mid, needs
            else:
                hi = mid - 1
        return best

    def _keep(self, emitted: int, seen: int, level: int) -> int:
        """Where the carried samples at ``level`` must start once
        ``emitted`` outputs are out: the next target's composed left
        context there, clamped to ``[0, seen]``.  A carried head also
        keeps the ``padlen + 1`` raw samples its closing odd extension
        reflects."""
        keep = _needed(self._maps, (emitted, emitted + 1), None)[level][0]
        if level:
            keep = min(keep, seen - self._head.padlen - 1)
        return min(max(keep, 0), seen)

    # -- execution ----------------------------------------------------------
    def push(
        self, block: np.ndarray, timer: Timer | None = None
    ) -> list[tuple[tuple[int, int], np.ndarray]]:
        """Append a ``(channels, time)`` piece of the record; returns the
        newly emittable ``((lo, hi), output)`` final-level intervals (in
        order, tiling the output axis across pushes)."""
        if self._finished:
            raise ConfigError("record already flushed; cannot push more samples")
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[0] != self.n_channels:
            raise ConfigError(
                f"need a ({self.n_channels}, n) block, got {block.shape}"
            )
        if block.shape[1]:
            # The push's one copy: the carried tail (a view since the last
            # trim) and the new piece land in one fresh float64 buffer.
            self._buf = np.concatenate(
                [self._buf, block], axis=1, dtype=np.float64
            )
            self._seen += block.shape[1]
        return self._emit(at_edge=False, timer=timer)

    def flush(
        self, timer: Timer | None = None
    ) -> list[tuple[tuple[int, int], np.ndarray]]:
        """Declare the record finished and emit the deferred tail.

        The right edge is now a true record edge, clamped exactly as the
        batch runner clamps it, so the total emitted output equals one
        batch run over the whole concatenated record.
        """
        if self._finished:
            return []
        self._finished = True
        try:
            return self._emit(at_edge=True, timer=timer)
        finally:
            self.close()

    def close(self) -> None:
        """Stop the row pool's threads; none runs once this returns.  The
        runner stays usable: a later emission that splits starts a new
        pool."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _emit(
        self, at_edge: bool, timer: Timer | None
    ) -> list[tuple[tuple[int, int], np.ndarray]]:
        maps = self._maps
        totals, rates, channels = _levels(
            maps, self.n_channels, self._seen, self.fs
        )
        if not at_edge:
            # No more outputs can be ready than a record ending here holds.
            needs = self._open_needs(self._emitted, self._seen, totals[-1])
        elif totals[-1] > self._emitted:
            needs = _needed(maps, (self._emitted, totals[-1]), totals)
        else:
            needs = None
        skip = 0 if self._head is None else 1
        if skip:
            upto = needs[-1][1] if needs is not None else self._emitted
            self._forward(self._keep(upto, self._seen, 1), timer)
        pieces: list[tuple[tuple[int, int], np.ndarray]] = []
        if needs is not None:
            a, b = needs[skip]
            if a < self._buf_start:
                raise ConfigError(
                    f"carried buffer starts at {self._buf_start} but the next "
                    f"emission needs samples from {a}"
                )
            states = [
                op.bind(channels[k], totals[k], rates[k])
                for k, op in enumerate(maps)
            ]
            if skip:
                block = self._backward(needs, at_edge, timer)
            else:
                block = self._buf[:, a - self._buf_start : b - self._buf_start]
            rows = channels[-1]
            # The record's pool starts with its first emission that splits.
            if (
                self._pool is None
                and maps[skip:]
                and len(partition_row_blocks(rows, self._workers)) > 1
            ):
                self._pool = ThreadPoolExecutor(
                    self._workers, thread_name_prefix="incremental-rows"
                )
            out, _ = _run_rows(
                self._pool, self._workers, maps[skip:], rows, block,
                needs[skip:], totals[skip:], rates[skip:], states[skip:], timer,
            )
            pieces.append((needs[-1], np.ascontiguousarray(out)))
            self._emitted = needs[-1][1]
        self._trim()
        return pieces

    def _phase(self, timer: Timer | None):
        return timer.phase(self._head.name) if timer is not None else nullcontext()

    def _forward(self, split: int, timer: Timer | None) -> None:
        """Carry the head's forward pass over the samples pushed since it
        last ran, cut at ``split`` — the next trim point — so the state
        there is known.  A record opens once it holds ``padlen + 1``
        samples; one that ends shorter fails at the closing odd extension
        (:meth:`_backward`), as batch ``filtfilt`` refuses it."""
        lo, state = self._marks[-1]
        padlen = self._head.padlen
        opens = state is None
        if lo == self._seen or (opens and self._seen - lo <= padlen):
            return
        cuts = [lo, self._seen]
        if lo < split < self._seen and not (opens and split - lo <= padlen):
            cuts.insert(1, split)
        pieces = [self._fwd]
        with self._phase(timer):
            for c0, c1 in zip(cuts, cuts[1:]):
                x = self._buf[:, c0 - self._buf_start : c1 - self._buf_start]
                y, state = self._head.forward_half(x, state)
                pieces.append(y)
                self._marks.append((c1, state))
        self._fwd = np.concatenate(pieces, axis=1)

    def _backward(
        self, needs: list[tuple[int, int]], at_edge: bool, timer: Timer | None
    ) -> np.ndarray:
        """The head's output over ``needs[1]``: its backward pass over the
        carried forward samples, from ``needs[0]``'s right edge (the need
        plus the settle length) or, at the record's edge, from the true
        end past the closing odd extension."""
        a, b = needs[1]
        lo = a - self._buf_start
        with self._phase(timer):
            if at_edge:
                tail = self._buf[:, -(self._head.padlen + 1) :]
                out = self._head.backward_half(
                    self._fwd[:, lo:], end=(tail, self._marks[-1][1])
                )
            else:
                hi = needs[0][1] - self._buf_start
                out = self._head.backward_half(self._fwd[:, lo:hi])
        return out[:, : b - a]

    def _trim(self) -> None:
        """Drop buffered samples no emission can need again: everything
        left of the next target's composed left context — for a carried
        head, left of the last forward state at or before it.  The tail
        stays a view; the next :meth:`push` copies it once, with the new
        piece."""
        if self._head is None:
            keep = self._keep(self._emitted, self._seen, 0)
        else:
            keep = self._keep(self._emitted, self._seen, 1)
            # marks ascend: drop all but the last one at or before ``keep``
            del self._marks[: sum(pos <= keep for pos, _ in self._marks[1:])]
            keep = self._marks[0][0]
            self._fwd = self._fwd[:, keep - self._buf_start :]
        if keep > self._buf_start:
            self._buf = self._buf[:, keep - self._buf_start :]
            self._buf_start = keep

    # -- carried-state export/import ---------------------------------------
    def export_state(self) -> dict:
        """JSON-safe carried state: watermarks, the head's forward state
        at ``buf_start`` (``None`` without a carried head, or where the
        record opens) and a digest of the raw tail.

        The tail samples themselves are *not* serialised — they are
        re-readable from the durable acquisition files covering
        ``[buf_start, seen)`` — only their SHA-256, which
        :meth:`import_state` verifies after the caller re-reads them.
        """
        state = self._marks[0][1] if self._head is not None else None
        return {
            "version": self.STATE_VERSION,
            "operators": [op.name for op in self._maps],
            "n_channels": self.n_channels,
            "fs": self.fs,
            "seen": self._seen,
            "emitted": self._emitted,
            "buf_start": self._buf_start,
            "tail_samples": self.pending_samples,
            "tail_sha256": _tail_digest(self._buf),
            "forward_state": None if state is None else _pack_state(state),
        }

    def _check_watermarks(self, seen: int, emitted: int, buf_start: int) -> None:
        """Refuse counters :meth:`export_state` could not have written: a
        push leaves ``emitted`` at what ``seen`` samples make ready and a
        flush at the record's total, and the tail starts where the trim
        put it — trusting anything else would silently drop or never
        produce output."""
        if not 0 <= buf_start <= seen:
            raise ConfigError(
                f"checkpoint tail [{buf_start}, {seen}) is not a sample range"
            )
        total = _levels(self._maps, self.n_channels, seen, self.fs)[0][-1]
        needs = self._open_needs(0, seen, total)
        ready = needs[-1][1] if needs is not None else 0
        if emitted not in (ready, total):
            raise ConfigError(
                f"checkpoint says {emitted} outputs were emitted, but "
                f"{seen} samples make {ready} ready ({total} once flushed)"
            )
        if self._head is None:
            # The raw-halo trim point, at the chain's input.
            if buf_start != self._keep(emitted, seen, 0):
                raise ConfigError(
                    f"checkpoint tail starts at {buf_start}, not where "
                    f"{emitted} emitted outputs put it"
                )
        elif buf_start > self._keep(emitted, seen, 1):
            raise ConfigError(
                f"checkpoint tail starts at {buf_start}, after the samples "
                f"the next emission needs"
            )

    def import_state(self, payload: dict, tail: np.ndarray) -> None:
        """Restore carried state exported by :meth:`export_state`.

        ``tail`` is the raw input block covering ``[buf_start, seen)``,
        re-read from storage by the caller; it is digest-verified so a
        checkpoint can never silently resume against different samples.
        A carried head re-runs its forward pass over the tail from the
        recorded state, so the resumed runner is bit-identical to one
        that never stopped.  Only :attr:`STATE_VERSION` payloads import.
        """
        version = payload.get("version")
        if version != self.STATE_VERSION:
            raise ConfigError(f"carried-state version {version!r} unsupported")
        names = [op.name for op in self._maps]
        if payload.get("operators") != names:
            raise ConfigError(
                f"checkpoint was taken by chain {payload.get('operators')}, "
                f"this runner is {names}"
            )
        if int(payload["n_channels"]) != self.n_channels:
            raise ConfigError(
                f"checkpoint has {payload['n_channels']} channels, "
                f"runner has {self.n_channels}"
            )
        tail = np.ascontiguousarray(np.asarray(tail, dtype=np.float64))
        seen = int(payload["seen"])
        emitted = int(payload["emitted"])
        buf_start = int(payload["buf_start"])
        self._check_watermarks(seen, emitted, buf_start)
        expect = (self.n_channels, seen - buf_start)
        if tail.ndim != 2 or tail.shape != expect:
            raise ConfigError(f"tail shape {tail.shape} != expected {expect}")
        if _tail_digest(tail) != payload["tail_sha256"]:
            raise ConfigError(
                "carried-state digest mismatch: the re-read tail differs "
                "from the checkpointed samples"
            )
        state = payload.get("forward_state")
        if state is not None:
            if self._head is None:
                raise ConfigError("forward state for a chain without a carried head")
            state = _unpack_state(state, self.n_channels)
        elif self._head is not None and buf_start:
            raise ConfigError(
                f"checkpoint tail starts at {buf_start} without the forward "
                "state there"
            )
        self._buf = tail
        self._buf_start = buf_start
        self._seen = seen
        self._emitted = emitted
        self._finished = False
        if self._head is not None:
            self._fwd = np.zeros((self.n_channels, 0))
            self._marks = [(buf_start, state)]
            self._forward(self._keep(emitted, seen, 1), None)
            self._trim()


def run_materialized(
    operators: list,
    data: np.ndarray,
    fs: float = 0.0,
    timer: Timer | None = None,
    interpreted: bool = False,
    iostats: IOStats | None = None,
) -> PipelineResult:
    """The MATLAB-style execution of the same operator graph: one stage at
    a time over the whole array, every intermediate materialised.

    With ``interpreted=True`` operators run their per-channel interpreted
    loops (the way MATLAB scripts iterate channels); built-in kernels
    (FFT) stay vectorised, as MATLAB's do.  Per-stage wall time lands in
    ``timer`` under the same phase names streamed execution uses —
    ``read`` for input coercion, ``{op}:prepass`` for whole-record state,
    one phase per stage — so streamed-vs-materialised profiles compare
    phase for phase; the profile's peak resident bytes reflect the
    whole-array intermediates — the Fig. 9 memory story.
    """
    chain = Branch.of(operators)
    timer = timer if timer is not None else Timer()
    io_before = iostats.total_bytes_read() if iostats is not None else None
    with timer.phase("read"):
        data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigError("need a 2-D (channels, time) array")
    cur = data
    total = data.shape[1]
    rate = fs
    peak = data.nbytes
    for op in chain.maps:
        if op.needs_prepass:
            with timer.phase(f"{op.name}:prepass"):
                acc = op.prepass_init(cur.shape[0], total)
                op.prepass_update(acc, cur, 0)
                state = op.prepass_finalize(acc)
        else:
            state = op.bind(cur.shape[0], total, rate)
        ctx = OpContext(
            start=0,
            stop=total,
            total=total,
            fs=rate,
            state=state,
            interpreted=interpreted,
        )
        with timer.phase(op.name):
            nxt = op.apply(cur, ctx)
        peak = max(peak, cur.nbytes + nxt.nbytes)
        cur = nxt
        total = op.out_total(total)
        rate = op.out_fs(rate)
    output: Any = cur
    if chain.sink is not None:
        state = chain.sink.init(cur.shape[0], total, rate)
        ctx = OpContext(
            start=0, stop=total, total=total, fs=rate, state=state,
            interpreted=interpreted,
        )
        with timer.phase(chain.sink.name):
            chain.sink.consume(state, cur, ctx)
            output = chain.sink.finalize(state)
        if isinstance(output, np.ndarray):
            peak = max(peak, cur.nbytes + output.nbytes)
    output = _run_post(chain.post, output, rate, timer, interpreted)
    profile = PipelineProfile(
        phases=dict(timer.phases),
        n_chunks=1,
        chunk_samples=data.shape[1],
        threads=1,
        bytes_streamed=data.nbytes,
        bytes_read=(
            iostats.total_bytes_read() - io_before
            if io_before is not None
            else None
        ),
        peak_resident_bytes=peak,
        output_bytes=output.nbytes if isinstance(output, np.ndarray) else 0,
    )
    return PipelineResult(output=output, profile=profile)
