"""The read-serving layer: sessions answering window/preview/event queries.

A :class:`DataServer` owns one VCA archive and the shared machinery every
request rides on — a :class:`~repro.hdf5lite.cache.FilePool` (handles stay
open) fronted by a :class:`~repro.hdf5lite.cache.BlockCache` (hot pages
stay resident), a degraded-read source (lost minutes become NaN spans plus
:class:`~repro.storage.gaps.GapMap` entries, never errors), the pyramid
levels, and the :class:`~repro.serve.admission.AdmissionController`.
Tenants get :class:`ServeSession` handles; every call admits *before* any
backend byte moves and records its end-to-end latency into the tenant's
reservoir.

A ``read_window`` is a storage read, not a plan: its channel range, time
window and sample stride are one :class:`~repro.storage.chunks.SourceView`
of the archive source, read once, so selection and stride are pushed into
strided backend reads and the session never materialises more than the
answer.  Only what computes goes through the planner — a preview that no
stored pyramid level serves streams ``DecimateOp`` over the raw window.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import Query
from repro.core.operators import DecimateOp
from repro.core.optimizer import execute, optimize
from repro.errors import ConfigError, FormatError, ServeError
from repro.hdf5lite.cache import BlockCache, CacheConfig, FilePool
from repro.hdf5lite.pyramid import PyramidLevel, pyramid_levels
from repro.rt.events import SeamEvent, read_event_log
from repro.serve.admission import AdmissionController, TenantQuota
from repro.serve.pyramid import level_slice, round_to_level, select_level
from repro.storage.chunks import SourceView, open_stream
from repro.storage.gaps import GapSpan
from repro.utils.iostats import IOStats

__all__ = [
    "ServeConfig",
    "WindowResult",
    "Preview",
    "DataServer",
    "ServeSession",
]


@dataclass(frozen=True)
class ServeConfig:
    """Server-wide knobs.

    ``on_error="mask"`` is the serving default: a viewer scrubbing
    through a damaged archive should see NaN spans (rendered as gaps),
    not 500s.  Windows are single reads and pyramid previews single
    slices; the raw-window preview fallback, the one request that streams
    through the planner, takes the planner's auto-sized chunk.
    """

    cache_bytes: int = 64 << 20
    on_error: str = "mask"
    fill_value: float = float("nan")
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: dict[str, TenantQuota] = field(default_factory=dict)


@dataclass(frozen=True)
class WindowResult:
    """One answered window read.

    ``data[r, j]`` is raw channel ``channel_lo + r`` at raw sample
    ``t0 + j * step`` — bit-exact to slicing the raw record
    (``raw[channel_lo:channel_hi, t0:t1][:, ::step]``).  ``gaps`` lists
    the degraded spans overlapping ``[t0, t1)`` in raw coordinates.
    """

    data: np.ndarray
    t0: int
    t1: int
    step: int
    channel_lo: int
    channel_hi: int
    gaps: list[GapSpan]
    waited_s: float


@dataclass(frozen=True)
class Preview:
    """One answered preview (decimated rendering of a window).

    ``data[r, j]`` is channel ``channel_lo + r`` at raw sample
    ``(j0 + j) * factor`` where ``j0 = ceil(t0 / factor)``; ``mask`` is
    True where the pixel is non-finite — degraded (NaN-masked) raw spans
    propagate through the decimation FIR into masked pixels.  ``level``
    names the pyramid level that served it (``None`` = computed from
    raw).
    """

    data: np.ndarray
    mask: np.ndarray
    t0: int
    t1: int
    factor: int
    level: int | None
    channel_lo: int
    channel_hi: int
    waited_s: float


class DataServer:
    """Shared serving state for one archive; hand out sessions per tenant.

    Safe for concurrent sessions: backend reads serialize on the
    per-file I/O lock under the pool, the block cache and admission
    controller carry their own locks, and per-request state — a window's
    view, a raw preview's plan — is built and dropped by the request.
    """

    def __init__(
        self,
        archive: str | os.PathLike,
        config: ServeConfig | None = None,
        events_path: str | os.PathLike | None = None,
        iostats: IOStats | None = None,
    ):
        self.archive = os.fspath(archive)
        self.config = config if config is not None else ServeConfig()
        self.iostats = iostats if iostats is not None else IOStats()
        self.pool = FilePool(
            iostats=self.iostats,
            cache=BlockCache(
                CacheConfig(byte_budget=self.config.cache_bytes), self.iostats
            ),
        )
        self.source = open_stream(
            self.archive,
            iostats=self.iostats,
            pool=self.pool,
            on_error=self.config.on_error,
            fill_value=self.config.fill_value,
        )
        try:
            self.levels: list[PyramidLevel] = pyramid_levels(
                self.pool.acquire(self.archive)
            )
        except FormatError:
            self.close()
            raise
        self.admission = AdmissionController(
            default=self.config.default_quota, quotas=self.config.quotas
        )
        self._events_path = os.fspath(events_path) if events_path else None
        self._events_lock = threading.Lock()
        # (st_mtime, st_size) of the last load — guarded-by: _events_lock
        self._events_sig: tuple[float, int] | None = None
        self._events: list[SeamEvent] = []  # guarded-by: _events_lock
        self._closed = False

    # -- geometry -----------------------------------------------------------
    @property
    def n_channels(self) -> int:
        return self.source.n_channels

    @property
    def n_samples(self) -> int:
        return self.source.n_samples

    @property
    def fs(self) -> float:
        return self.source.fs

    # -- lifecycle ----------------------------------------------------------
    def session(self, tenant: str) -> "ServeSession":
        if self._closed:
            raise ServeError("server is closed")
        return ServeSession(self, str(tenant))

    def close(self) -> None:
        self._closed = True
        self.source.close()
        self.pool.close_all()

    def __enter__(self) -> "DataServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals ----------------------------------------------------------
    def pyramid_data(self, level: PyramidLevel):
        """The stored dataset behind ``level`` (through the pool/cache)."""
        return self.pool.acquire(self.archive)[level.path]

    def load_events(self) -> list[SeamEvent]:
        """The event catalog, re-read only when the sink file changed.

        Freshness is keyed on ``(mtime, size)``, not mtime alone: mtimes
        have finite granularity, so two appends inside one tick leave the
        mtime unchanged.  An append always grows the JSONL, so the size
        breaks the tie.
        """
        if self._events_path is None:
            return []
        try:
            stat = os.stat(self._events_path)
        except OSError:
            return []
        signature = (stat.st_mtime, stat.st_size)
        with self._events_lock:
            if self._events_sig != signature:
                records, _ = read_event_log(self._events_path)
                self._events = [event for _, event in records]
                self._events_sig = signature
            return list(self._events)

    def window_gaps(self, t0: int, t1: int) -> list[GapSpan]:
        """Degraded spans recorded so far that overlap ``[t0, t1)``,
        clipped to the window (raw coordinates)."""
        gaps = getattr(self.source, "gaps", None)
        if not gaps:
            return []
        return [
            GapSpan(s.source, max(s.t0, t0), min(s.t1, t1), s.reason)
            for s in gaps
            if s.overlaps(t0, t1)
        ]


class ServeSession:
    """One tenant's request interface (cheap; create per viewer)."""

    def __init__(self, server: DataServer, tenant: str):
        self.server = server
        self.tenant = tenant

    # -- helpers ------------------------------------------------------------
    def _channels(self, channels: tuple[int, int] | None) -> tuple[int, int]:
        if channels is None:
            return 0, self.server.n_channels
        lo, hi = int(channels[0]), int(channels[1])
        if not (0 <= lo < hi <= self.server.n_channels):
            raise ServeError(
                f"channel range [{lo}, {hi}) outside "
                f"{self.server.n_channels} channels"
            )
        return lo, hi

    def _window(self, t0: int, t1: int) -> tuple[int, int]:
        t0, t1 = int(t0), int(t1)
        if not (0 <= t0 < t1 <= self.server.n_samples):
            raise ServeError(
                f"window [{t0}, {t1}) outside {self.server.n_samples} samples"
            )
        return t0, t1

    def _admit(self, nbytes: int, wait: bool):
        return self.server.admission.admit(self.tenant, nbytes, wait=wait)

    # -- requests -----------------------------------------------------------
    def read_window(
        self,
        t0: int,
        t1: int,
        channels: tuple[int, int] | None = None,
        step: int = 1,
        wait: bool = True,
    ) -> WindowResult:
        """Rows ``[lo, hi)``, every ``step``-th raw sample of ``[t0, t1)``.

        Bit-exact to ``raw[lo:hi, t0:t1][:, ::step]`` — the request is one
        read of a :class:`~repro.storage.chunks.SourceView` of the archive,
        so the stride lattice anchors at the window start and the storage
        layer fetches it as bounding spans (never more than the window's
        block).  Nothing is computed, so no plan is built: this is the read
        the planner's compute-free path makes for the same query.
        """
        t0, t1 = self._window(t0, t1)
        lo, hi = self._channels(channels)
        step = int(step)
        if step < 1:
            raise ServeError("step must be >= 1")
        out_samples = -(-(t1 - t0) // step)
        started = time.perf_counter()
        admission = self._admit((hi - lo) * out_samples * 8, wait)
        # Byte-accurate accounting: the admitted charge is an output-size
        # estimate; measure what the backend actually read and settle the
        # difference against the tenant's byte bucket afterwards.  (The
        # IOStats delta attributes concurrent tenants' reads to whoever
        # reconciles first — best-effort under concurrency, exact solo.)
        read_before = self.server.iostats.total_bytes_read()
        view = SourceView(
            self.server.source, channel_lo=lo, channel_hi=hi, t0=t0, t1=t1, step=step
        )
        data = view.read(0, view.n_samples)
        self.server.admission.reconcile(
            admission,
            self.server.iostats.total_bytes_read() - read_before,
        )
        self.server.admission.record_latency(
            self.tenant, time.perf_counter() - started
        )
        return WindowResult(
            data=data,
            t0=t0,
            t1=t1,
            step=step,
            channel_lo=lo,
            channel_hi=hi,
            gaps=self.server.window_gaps(t0, t1),
            waited_s=admission.waited_s,
        )

    def preview(
        self,
        t0: int,
        t1: int,
        width: int,
        channels: tuple[int, int] | None = None,
        use_pyramid: bool = True,
        wait: bool = True,
    ) -> Preview:
        """An anti-aliased rendering of ``[t0, t1)`` at about ``width``
        pixels per channel.

        Picks the coarsest pyramid level still finer than the pixel
        pitch and slices it — O(output pixels) backend bytes — falling
        back to streaming :class:`~repro.core.operators.DecimateOp` over
        the raw window when no stored level fits (or
        ``use_pyramid=False``, which tests use to compare the two paths).
        Both paths emit pixels on the absolute lattice ``j * factor``
        (the raw window is snapped to the next lattice point) and round
        them through float32 like a stored level
        (:func:`~repro.serve.pyramid.compute_level`), so a whole-record
        preview at a stored level's factor is *identical* pixel-for-pixel
        between them; partial windows may differ in the last FIR taps
        near the window edges, where the streamed path has less context
        than the whole-record pyramid build had.  ``data`` is float64
        either way.
        """
        t0, t1 = self._window(t0, t1)
        lo, hi = self._channels(channels)
        if int(width) < 1:
            raise ServeError("width must be >= 1")
        span = t1 - t0
        level = (
            select_level(self.server.levels, span, int(width))
            if use_pyramid
            else None
        )
        started = time.perf_counter()
        if level is not None:
            j0, j1 = level_slice(level.factor, t0, t1)
            admission = self._admit((hi - lo) * (j1 - j0) * 8, wait)
            read_before = self.server.iostats.total_bytes_read()
            block = np.asarray(
                self.server.pyramid_data(level)[lo:hi, j0:j1], dtype=np.float64
            )
            factor, level_no = level.factor, level.level
        else:
            factor = max(1, span // int(width))
            j0, j1 = level_slice(factor, t0, t1)
            admission = self._admit((hi - lo) * (j1 - j0) * 8, wait)
            read_before = self.server.iostats.total_bytes_read()
            window = SourceView(self.server.source, t0=j0 * factor, t1=t1)
            query = Query.scan(None)
            if (lo, hi) != (0, self.server.n_channels):
                query = query.select_channels(lo, hi)
            if factor > 1:
                query = query.then(DecimateOp(factor))
            (result,) = execute(
                optimize(query), source=window, iostats=self.server.iostats
            )
            # through float32, as a stored level is: aligned paths agree
            block = round_to_level(
                result.output, f"preview of [{t0}, {t1})"
            ).astype(np.float64)
            level_no = None
        self.server.admission.reconcile(
            admission,
            self.server.iostats.total_bytes_read() - read_before,
        )
        self.server.admission.record_latency(
            self.tenant, time.perf_counter() - started
        )
        return Preview(
            data=block,
            mask=~np.isfinite(block),
            t0=t0,
            t1=t1,
            factor=factor,
            level=level_no,
            channel_lo=lo,
            channel_hi=hi,
            waited_s=admission.waited_s,
        )

    def events(
        self, t0: int, t1: int, wait: bool = True
    ) -> list[SeamEvent]:
        """Catalog events overlapping raw window ``[t0, t1)`` (event
        times are seconds; the archive's rate converts)."""
        t0, t1 = self._window(t0, t1)
        started = time.perf_counter()
        self._admit(0, wait)
        fs = self.server.fs
        if not fs:
            raise ServeError("archive has no sampling rate; cannot map times")
        t0_s, t1_s = t0 / fs, t1 / fs
        hits = [
            ev
            for ev in self.server.load_events()
            if ev.event.t_start < t1_s and ev.event.t_end >= t0_s
        ]
        self.server.admission.record_latency(
            self.tenant, time.perf_counter() - started
        )
        return hits

    def metrics(self) -> dict:
        """This tenant's admission/latency counters and reservoirs."""
        return self.server.admission.metrics(self.tenant)
