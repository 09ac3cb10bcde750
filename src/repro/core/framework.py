"""The DASSA facade — search, merge, and analyse in a few calls.

The paper lists "an API in Python ... to enable interactive DAS data
analysis" as future work; this class is that API::

    dassa = DASSA(workdir="scratch/")
    files = dassa.search("data/", start="170620100545", count=6)
    vca = dassa.merge(files)                       # VCA by default
    simi, centers = dassa.local_similarity(vca)    # Algorithm 2
    events = dassa.detect(simi, centers)
    corr = dassa.interferometry(vca)               # Algorithm 3

**One lowering.**  :class:`AnalysisPlan` is the only place an analysis
becomes an operator chain.  The four eager methods
(:meth:`DASSA.local_similarity`, :meth:`~DASSA.interferometry`,
:meth:`~DASSA.sta_lta`, :meth:`~DASSA.stack`) are one-branch plans::

    facade method -> AnalysisPlan (one branch) -> optimize -> execute
                  -> run_chunks

so an eager call and a planned one share the chain builder, the chunk
length (:func:`repro.core.optimizer._resolve_execution`: explicit, else
``DEFAULT_CHUNK_BYTES`` over the blocks held at once) and the bookkeeping
(:attr:`DASSA.last_profile`, :attr:`~DASSA.last_gaps`,
:attr:`~DASSA.last_frame`, all set by one ``_finish``).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.core.detection import DetectedEvent, detect_events
from repro.core.graph import CoordFrame, Query
from repro.core.interferometry import InterferometryConfig, master_bound_operators
from repro.core.local_similarity import LocalSimilarityConfig, LocalSimilarityOp
from repro.core.optimizer import PhysicalPlan
from repro.core.optimizer import execute as execute_plan
from repro.core.optimizer import explain as explain_plan
from repro.core.optimizer import optimize
from repro.core.pipeline import PipelineProfile, PipelineResult
from repro.core.stacking import NCFStackSink
from repro.core.stalta import StaLtaOp
from repro.errors import ConfigError, StorageError
from repro.faults.policy import FailurePolicy
from repro.storage.chunks import ChunkSource, as_source, open_stream
from repro.storage.gaps import GapMap
from repro.storage.rca import create_rca
from repro.storage.search import DASFileInfo, das_search
from repro.storage.vca import create_vca


@dataclass
class DASSAConfig:
    """Framework-level knobs.

    ``chunk_samples=None`` leaves the chunk length to the planner, which
    sizes it so the raw blocks a run holds at once — ``threads`` in
    compute and one read ahead — stay under
    :data:`~repro.storage.chunks.DEFAULT_CHUNK_BYTES` together (whole
    record if it already fits); an explicit ``chunk_samples`` is used as
    given.

    ``on_error`` governs degraded source reads (forwarded to
    :func:`~repro.storage.vca.open_vca` when the facade opens a VCA path):
    ``"raise"`` propagates typed storage errors, ``"mask"`` fills
    unreadable spans with ``fill_value`` and reports them.
    ``failure_policy`` governs per-chunk execution faults in the
    streaming core (retry / fail-fast vs collect-and-continue).
    """

    threads: int = 4
    workdir: str | None = None
    chunk_samples: int | None = None
    on_error: str = "raise"
    fill_value: float = float("nan")
    failure_policy: FailurePolicy | None = None


class DASSA:
    """One entry point tying DASS (storage) and DASA (analysis) together.

    Every analysis call is an :class:`AnalysisPlan` streamed through the
    one chunk-loop kernel (:func:`~repro.core.pipeline.run_chunks`); the
    profile of the most recent run (per-stage seconds, bytes streamed,
    peak resident bytes) is kept in :attr:`last_profile`, its coordinate
    frame in :attr:`last_frame`, and — when degraded reads or a
    ``continue`` failure policy are active — the spans lost to faults
    land in :attr:`last_gaps`.
    """

    def __init__(
        self,
        threads: int = 4,
        workdir: str | os.PathLike | None = None,
        chunk_samples: int | None = None,
        on_error: str = "raise",
        fill_value: float = float("nan"),
        failure_policy: FailurePolicy | None = None,
    ):
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        if chunk_samples is not None and chunk_samples < 1:
            raise ConfigError("chunk_samples must be >= 1")
        if on_error not in ("raise", "mask"):
            raise ConfigError(
                f"on_error must be 'raise' or 'mask', got {on_error!r}"
            )
        self.config = DASSAConfig(
            threads=threads,
            workdir=os.fspath(workdir) if workdir is not None else None,
            chunk_samples=chunk_samples,
            on_error=on_error,
            fill_value=fill_value,
            failure_policy=failure_policy,
        )
        self.last_profile: PipelineProfile | None = None
        self.last_gaps: GapMap | None = None
        #: Coordinate frame of the most recent run: maps output
        #: rows/columns back to raw channels/samples when the optimizer
        #: pushed a channel selection or decimation into the source (the
        #: identity frame after an eager call, which selects nothing).
        self.last_frame: CoordFrame | None = None
        self._tmpdir: tempfile.TemporaryDirectory | None = None

    # -- storage side --------------------------------------------------------------
    def search(
        self,
        directory: str | os.PathLike,
        start: str | None = None,
        count: int | None = None,
        pattern: str | None = None,
    ) -> list[DASFileInfo]:
        """``das_search``: type-1 (start/count) or type-2 (regex) query."""
        return das_search(directory, start=start, count=count, pattern=pattern)

    def _workdir(self) -> str:
        if self.config.workdir is not None:
            os.makedirs(self.config.workdir, exist_ok=True)
            return self.config.workdir
        if self._tmpdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="dassa-")
        return self._tmpdir.name

    def merge(
        self,
        files: list[DASFileInfo | str],
        out_path: str | None = None,
        real: bool = False,
        assume_uniform: bool = False,
    ) -> str:
        """Merge files into a VCA (default) or an RCA (``real=True``)."""
        if not files:
            raise StorageError("no files to merge")
        if out_path is None:
            kind = "rca" if real else "vca"
            out_path = os.path.join(self._workdir(), f"merged_{kind}.h5")
        if real:
            return create_rca(out_path, files)
        return create_vca(out_path, files, assume_uniform=assume_uniform)

    def search_and_merge(
        self,
        directory: str | os.PathLike,
        start: str | None = None,
        count: int | None = None,
        pattern: str | None = None,
        real: bool = False,
    ) -> str:
        """One-shot: query then merge the hits."""
        hits = self.search(directory, start=start, count=count, pattern=pattern)
        if not hits:
            raise StorageError("search matched no files")
        return self.merge(hits, real=real)

    def _open_source(
        self, source: str | np.ndarray | ChunkSource
    ) -> tuple[ChunkSource, bool]:
        """Coerce to a chunk source; second element says we opened (and
        must close) a file handle.  Paths we open ourselves inherit the
        facade's degraded-read mode."""
        if isinstance(source, (str, os.PathLike)):
            return (
                open_stream(
                    source,
                    on_error=self.config.on_error,
                    fill_value=self.config.fill_value,
                ),
                True,
            )
        return as_source(source), False

    def _finish(
        self, src: ChunkSource, frame: CoordFrame, *results: PipelineResult
    ) -> None:
        """Record a run's profile (shared by every branch result), its
        coordinate frame and its fault report.

        ``last_gaps`` merges source-level gaps (input-sample spans a
        degraded VCA read masked) with each result's chunk-level gaps
        (final *output* spans filled under a ``continue`` policy — the
        pipeline may decimate, so the two coordinate systems differ);
        ``None`` when the run was clean.
        """
        self.last_profile = results[0].profile
        self.last_frame = frame
        gaps = GapMap()
        source_gaps = getattr(src, "gaps", None)
        if source_gaps:
            gaps.merge(source_gaps)
        for result in results:
            if result.gaps:
                gaps.merge(result.gaps)
        self.last_gaps = gaps if gaps else None

    # -- analysis side -------------------------------------------------------------
    # Each eager analysis is a one-branch plan over the whole source.
    def local_similarity(
        self,
        source: str | np.ndarray | ChunkSource,
        config: LocalSimilarityConfig | None = None,
        chunk_samples: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 2 over a VCA path / handle / array, streamed in
        overlap-padded chunks.

        Returns ``(similarity_map, window_centers)``; the map covers
        channels K..C-K (array edges have no ±K neighbours).
        """
        plan = self.plan(source, chunk_samples=chunk_samples)
        return plan.local_similarity(config, label="out").run()["out"]

    def detect(
        self,
        similarity: np.ndarray,
        centers: np.ndarray,
        fs: float,
        **kwargs,
    ) -> list[DetectedEvent]:
        """Pick and classify events on a similarity map."""
        return detect_events(similarity, centers, fs, **kwargs)

    def interferometry(
        self,
        source: str | np.ndarray | ChunkSource,
        config: InterferometryConfig | None = None,
        chunk_samples: int | None = None,
    ) -> np.ndarray:
        """Algorithm 3: per-channel correlation against the master channel,
        streamed so the raw record is never resident at once."""
        plan = self.plan(source, chunk_samples=chunk_samples)
        return plan.interferometry(config, label="out").run()["out"]

    def sta_lta(
        self,
        source: str | np.ndarray | ChunkSource,
        nsta: int,
        nlta: int,
        chunk_samples: int | None = None,
    ) -> np.ndarray:
        """Classic STA/LTA ratios per channel, streamed with an
        ``nlta - 1``-sample lookback halo."""
        plan = self.plan(source, chunk_samples=chunk_samples)
        return plan.sta_lta(nsta, nlta, label="out").run()["out"]

    def stack(
        self,
        source: str | np.ndarray | ChunkSource,
        config: InterferometryConfig | None = None,
        window_seconds: float = 60.0,
        overlap: float = 0.0,
        max_lag_seconds: float | None = None,
        method: str = "linear",
        power: float = 2.0,
        chunk_samples: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Windowed NCF stacking (linear or phase-weighted), streamed:
        windows are correlated and folded into the running stack as the
        record flows past, so the §IV 3-D window cube never exists."""
        plan = self.plan(source, chunk_samples=chunk_samples)
        return plan.stack(
            config, window_seconds, overlap=overlap,
            max_lag_seconds=max_lag_seconds, method=method, power=power,
            label="out",
        ).run()["out"]

    # -- lazy planned analysis -----------------------------------------------------
    def plan(
        self,
        source: str | np.ndarray | ChunkSource,
        channels: tuple[int, int] | None = None,
        decimate: int = 1,
        chunk_samples: int | None = None,
    ) -> "AnalysisPlan":
        """Start a lazy analysis plan over ``source``.

        ``channels=(lo, hi)`` keeps that channel range and ``decimate=q``
        keeps every ``q``-th raw sample (exact pointwise selection);
        the optimizer pushes both into the storage read, so unselected
        channels are never read and the kept lattice is fetched and
        converted without materialising the samples between.  Add analysis
        branches (:meth:`AnalysisPlan.local_similarity`,
        :meth:`~AnalysisPlan.interferometry`,
        :meth:`~AnalysisPlan.sta_lta`, :meth:`~AnalysisPlan.stack`) and
        call :meth:`AnalysisPlan.run`; branches sharing the prefix
        execute it once per chunk.  ``chunk_samples`` overrides the
        facade's configured chunk length for this plan; with neither, the
        planner derives one from the default byte budget.
        """
        return AnalysisPlan(
            self, source, channels, decimate, chunk_samples=chunk_samples
        )

    def explain(self, plan: "AnalysisPlan | PhysicalPlan") -> str:
        """Human-readable before/after dump of a plan's rewrites."""
        if isinstance(plan, AnalysisPlan):
            return plan.explain()
        return explain_plan(plan)

    def close(self) -> None:
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "DASSA":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AnalysisPlan:
    """A lazy, multi-branch analysis over one source.

    Built by :meth:`DASSA.plan`; nothing reads data until :meth:`run` (or
    :meth:`explain`, which plans without executing the stream).  Each
    branch method appends one analysis and returns ``self``::

        out = (dassa.plan(vca, channels=(2, 10), decimate=4)
                    .sta_lta(5, 50, label="trig")
                    .local_similarity(cfg, label="simi")
                    .run())
        out["trig"], out["simi"]

    All branch configurations are expressed in the *planned* stream's
    coordinates (after the channel selection and decimation): an
    ``InterferometryConfig.fs`` must be the decimated rate, and a
    ``master_channel`` counts from ``channels[0]``.  Outputs are mapped
    back to raw coordinates where the analysis defines them (window
    centers); for everything else :attr:`DASSA.last_frame` holds the
    translation.
    """

    def __init__(
        self,
        dassa: DASSA,
        source: object,
        channels: tuple[int, int] | None = None,
        decimate: int = 1,
        chunk_samples: int | None = None,
    ):
        if decimate < 1:
            raise ConfigError("decimate must be >= 1")
        if channels is not None:
            lo, hi = channels
            if not (0 <= lo < hi):
                raise ConfigError(f"bad channel range [{lo}, {hi})")
        self._dassa = dassa
        self._source = source
        self._channels = channels
        self._step = int(decimate)
        self._chunk = (
            chunk_samples if chunk_samples is not None
            else dassa.config.chunk_samples
        )
        self._branches: list[tuple[str, str, dict]] = []
        self.plan: PhysicalPlan | None = None

    # -- branches ------------------------------------------------------------------
    def _add(self, kind: str, label: str | None, spec: dict) -> "AnalysisPlan":
        self._branches.append((kind, label or f"{kind}_{len(self._branches)}", spec))
        return self

    def local_similarity(
        self,
        config: LocalSimilarityConfig | None = None,
        label: str | None = None,
    ) -> "AnalysisPlan":
        """Algorithm 2; the branch yields ``(similarity_map, centers)``
        with centers in *raw* sample coordinates."""
        cfg = config if config is not None else LocalSimilarityConfig()
        return self._add("local_similarity", label, {"config": cfg})

    def interferometry(
        self,
        config: InterferometryConfig | None = None,
        label: str | None = None,
    ) -> "AnalysisPlan":
        """Algorithm 3; ``config.fs`` is the planned stream's rate and
        ``config.master_channel`` counts from the selected range.  With no
        config, the default band at the planned stream's rate."""
        return self._add("interferometry", label, {"config": config})

    def sta_lta(
        self, nsta: int, nlta: int, label: str | None = None
    ) -> "AnalysisPlan":
        """Classic STA/LTA ratios per channel of the planned stream."""
        return self._add("sta_lta", label, {"nsta": nsta, "nlta": nlta})

    def stack(
        self,
        config: InterferometryConfig | None = None,
        window_seconds: float = 60.0,
        overlap: float = 0.0,
        max_lag_seconds: float | None = None,
        method: str = "linear",
        power: float = 2.0,
        label: str | None = None,
    ) -> "AnalysisPlan":
        """Windowed NCF stacking; the branch yields ``(lags, stacked)``."""
        return self._add(
            "stack",
            label,
            {
                "config": config,
                "window_seconds": window_seconds,
                "overlap": overlap,
                "max_lag_seconds": max_lag_seconds,
                "method": method,
                "power": power,
            },
        )

    # -- planning & execution ------------------------------------------------------
    def _build_queries(self, src: ChunkSource) -> tuple[list[Query], list]:
        """One query per branch, and per branch the raw-sample window
        centers its output is paired with (``None``: output as is)."""
        if not self._branches:
            raise ConfigError("plan has no analysis branches")
        base = Query.scan(src)
        if self._channels is not None:
            base = base.select_channels(*self._channels)
        if self._step > 1:
            base = base.decimate(self._step)
        stream_samples = -(-src.n_samples // self._step)
        # Alg. 3 without a config: the default band at the stream's rate.
        stream_fs = src.fs / self._step if src.fs > 0 else 500.0

        queries: list[Query] = []
        centers: list = []
        for kind, label, spec in self._branches:
            at = None
            if kind == "local_similarity":
                cfg = spec["config"]
                q = base.then(LocalSimilarityOp(cfg))
                at = cfg.centers(stream_samples) * self._step
            elif kind == "interferometry":
                cfg = spec["config"] or InterferometryConfig(fs=stream_fs)
                q = base
                for op in master_bound_operators(
                    src,
                    cfg,
                    channel_lo=self._channels[0] if self._channels else 0,
                    step=self._step,
                ):
                    q = q.then(op)
            elif kind == "sta_lta":
                q = base.then(StaLtaOp(spec["nsta"], spec["nlta"]))
            else:  # stack
                spec = dict(spec)
                cfg = spec.pop("config") or InterferometryConfig(fs=stream_fs)
                q = base.then(
                    NCFStackSink(cfg, spec.pop("window_seconds"), **spec)
                )
            queries.append(q.with_label(label))
            centers.append(at)
        return queries, centers

    def _optimize(self, src: ChunkSource) -> tuple[PhysicalPlan, list]:
        queries, centers = self._build_queries(src)
        plan = optimize(
            queries,
            chunk_samples=self._chunk,
            threads=self._dassa.config.threads,
        )
        self.plan = plan
        return plan, centers

    def explain(self) -> str:
        """Plan (without streaming the record) and render the rewrites."""
        src, owns = self._dassa._open_source(self._source)
        try:
            plan, _ = self._optimize(src)
            return explain_plan(plan)
        finally:
            if owns:
                src.close()

    def run(self, naive: bool = False) -> dict:
        """Execute the optimized plan; ``naive=True`` runs the eager
        equivalence reference instead (same outputs, bit for bit).
        Returns ``{label: output}`` in branch order and records the run's
        profile, gaps, and coordinate frame on the facade.
        """
        src, owns = self._dassa._open_source(self._source)
        try:
            plan, centers = self._optimize(src)
            results = execute_plan(
                plan,
                source=src,
                naive=naive,
                policy=self._dassa.config.failure_policy,
            )
        finally:
            if owns:
                src.close()
        self._dassa._finish(src, plan.frame, *results)
        return {
            label: res.output if at is None else (res.output, at)
            for (_kind, label, _spec), res, at in zip(
                self._branches, results, centers
            )
        }
