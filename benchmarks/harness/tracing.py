"""Span tracing from outside the program.

Until ``src/repro`` carries its own spans (the ``repro.obs`` issue) the
harness records them around the calls it makes into each layer's public
functions.  A span is ``(name, layer, start, end, parent, op_id)`` plus the
:class:`~repro.utils.iostats.IOStats` delta between its boundaries; spans
stay in memory and are written out once the run ends.

A disabled tracer hands callers back exactly what they passed in — no
wrapper function, no proxy source — so the untraced passes that produce
the end-to-end numbers execute the program's own objects and nothing else.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.storage.chunks import ChunkSource


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: int | None
    op_id: str | None
    thread: int
    end: float = 0.0
    #: True for calls whose inside the harness cannot see: their self time
    #: counts as attributed only up to ``explained_s`` (what the program's
    #: own profile surfaces — PipelineProfile phases, RTMetrics stages,
    #: admission waits — account for).
    composite: bool = False
    explained_s: float = 0.0
    io: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; thread-safe for the harness's client threads."""

    def __init__(self, enabled: bool = True, iostats=None, clock=time.perf_counter):
        self.enabled = enabled
        self.iostats = iostats
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- context ---------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: str):
        """Tag every span opened on this thread inside the block with
        ``op_id`` (one closed-loop operation: a request, a file, a plan)."""
        previous = getattr(self._local, "op_id", None)
        self._local.op_id = op_id
        try:
            yield
        finally:
            self._local.op_id = previous

    @contextmanager
    def span(self, name: str, layer: str, composite: bool = False):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        before = self.iostats.full_snapshot() if self.iostats is not None else None
        span = Span(
            id=next(self._ids),
            name=name,
            layer=layer,
            start=self.clock(),
            parent=stack[-1].id if stack else None,
            op_id=getattr(self._local, "op_id", None),
            thread=threading.get_ident(),
            composite=composite,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            if before is not None:
                span.io = {
                    key: value
                    for key, value in self.iostats.delta(before).items()
                    if value
                }
            self.spans.append(span)

    def wrap(self, fn, name: str, layer: str, composite: bool = False):
        """``fn`` itself when disabled; otherwise ``fn`` inside a span."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer, composite=composite):
                return fn(*args, **kwargs)

        return traced

    def source(self, inner: ChunkSource) -> ChunkSource:
        """``inner`` itself when disabled; otherwise a delegating proxy
        whose reads are ``storage`` spans."""
        return SourceProxy(inner, self) if self.enabled else inner

    # -- analysis --------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        spans = self.spans
        children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: dict[int, float] = {}
        for span in spans:
            covered = 0.0
            edge = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo = max(child.start, edge)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[span.id] = span.duration - covered
        return out

    def summarize(self, root: Span, lanes: int = 1) -> dict:
        """Per-layer self time under ``root`` (the span around everything
        this tracer recorded) and the share of its wall nothing accounts for.

        ``lanes`` is the number of client threads that ran concurrently
        under the root (their spans have no parent on their own thread),
        so the denominator is ``wall * lanes``.
        """
        inside = [s for s in self.spans if s.id != root.id]
        self_times = self.self_times()
        layers: dict[str, float] = {}
        unexplained = 0.0
        for span in inside:
            own = self_times[span.id]
            if span.composite:
                hidden = max(0.0, own - span.explained_s)
                unexplained += hidden
                own -= hidden
            layers[span.layer] = layers.get(span.layer, 0.0) + own
        budget = root.duration * lanes
        top_level = sum(
            s.duration for s in inside
            if s.parent is None or s.parent == root.id
        )
        glue = max(0.0, budget - top_level)
        return {
            "layers_s": layers,
            "unattributed_share": (unexplained + glue) / budget if budget else 0.0,
            "spans": len(inside),
        }

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    # -- export ----------------------------------------------------------------
    def export(self, prefix: str) -> list[str]:
        """Write ``<prefix>.jsonl`` (one span per line) and
        ``<prefix>.chrome.json`` (chrome://tracing / Perfetto)."""
        origin = min((s.start for s in self.spans), default=0.0)
        self_times = self.self_times()
        jsonl, chrome = prefix + ".jsonl", prefix + ".chrome.json"
        with open(jsonl, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "layer": s.layer,
                    "start_s": s.start - origin, "end_s": s.end - origin,
                    "self_s": self_times[s.id], "parent": s.parent,
                    "op_id": s.op_id, "thread": s.thread,
                    "composite": s.composite, "explained_s": s.explained_s,
                    "io": s.io,
                }) + "\n")
        events = [
            {
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": s.thread, "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "args": {"op_id": s.op_id, "io": s.io, "span": s.id},
            }
            for s in self.spans
        ]
        with open(chrome, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return [jsonl, chrome]


class SourceProxy(ChunkSource):
    """A :class:`ChunkSource` that forwards everything to ``inner`` and
    records one ``storage`` span per read.

    Only the two primitive reads are intercepted (``read`` is the base
    class's ``read_rows`` over all channels); geometry, counters, gaps and
    ``close`` are the inner source's own — so a traced pass issues the same
    backend requests, in the same order, as an untraced one.
    """

    def __init__(self, inner: ChunkSource, tracer: Tracer):
        # no super().__init__(): bytes_streamed is the inner source's
        self._inner = inner
        self._tracer = tracer
        self.n_channels = inner.n_channels
        self.n_samples = inner.n_samples
        self.fs = inner.fs

    @property
    def bytes_streamed(self) -> int:
        return self._inner.bytes_streamed

    @property
    def gaps(self):
        return getattr(self._inner, "gaps", None)

    @property
    def path(self):
        return getattr(self._inner, "path", None)

    def read_rows(self, r0: int, r1: int, t0: int, t1: int) -> np.ndarray:
        with self._tracer.span("ChunkSource.read", "storage"):
            return self._inner.read_rows(r0, r1, t0, t1)

    def read_strided(
        self, r0: int, r1: int, t0: int, t1: int, tstep: int = 1
    ) -> np.ndarray:
        with self._tracer.span("ChunkSource.read_strided", "storage"):
            return self._inner.read_strided(r0, r1, t0, t1, tstep)

    def close(self) -> None:
        self._inner.close()
