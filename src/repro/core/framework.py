"""The DASSA facade — search, merge, and analyse in a few calls.

The paper lists "an API in Python ... to enable interactive DAS data
analysis" as future work; this class is that API::

    dassa = DASSA(workdir="scratch/")
    files = dassa.search("data/", start="170620100545", count=6)
    vca = dassa.merge(files)                       # VCA by default
    simi, centers = dassa.local_similarity(vca)    # Algorithm 2
    events = dassa.detect(simi, centers)
    corr = dassa.interferometry(vca)               # Algorithm 3
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.machine import ClusterSpec
from repro.cluster.presets import laptop
from repro.core.detection import DetectedEvent, detect_events
from repro.core.interferometry import (
    InterferometryConfig,
    noise_correlation_functions,
    streamed_interferometry,
)
from repro.core.local_similarity import (
    LocalSimilarityConfig,
    streamed_local_similarity,
)
from repro.core.graph import CoordFrame, Query
from repro.core.optimizer import PhysicalPlan
from repro.core.optimizer import execute as execute_plan
from repro.core.optimizer import explain as explain_plan
from repro.core.optimizer import optimize
from repro.core.pipeline import PipelineProfile, PipelineResult, in_flight
from repro.core.stalta import streamed_sta_lta
from repro.errors import ConfigError, StorageError
from repro.faults.policy import FailurePolicy
from repro.storage.chunks import (
    DEFAULT_CHUNK_BYTES,
    ChunkSource,
    as_source,
    auto_chunk_samples,
    open_stream,
)
from repro.storage.gaps import GapMap
from repro.storage.rca import create_rca
from repro.storage.search import DASFileInfo, das_search
from repro.storage.vca import VCAHandle, create_vca, open_vca


@dataclass
class DASSAConfig:
    """Framework-level knobs.

    ``chunk_samples=None`` sizes streaming chunks automatically so the raw
    blocks a run holds at once — ``threads`` in compute and one read
    ahead — stay under ``chunk_bytes`` together (whole record if it
    already fits); an explicit ``chunk_samples`` is used as given.

    ``on_error`` governs degraded source reads (forwarded to
    :func:`~repro.storage.vca.open_vca` when the facade opens a VCA path):
    ``"raise"`` propagates typed storage errors, ``"mask"``/``"skip"``
    fill unreadable spans with ``fill_value`` and report them.
    ``failure_policy`` governs per-chunk execution faults in the
    streaming core (retry / fail-fast vs collect-and-continue).
    """

    cluster: ClusterSpec = field(default_factory=laptop)
    threads: int = 4
    workdir: str | None = None
    chunk_samples: int | None = None
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    on_error: str = "raise"
    fill_value: float = float("nan")
    failure_policy: FailurePolicy | None = None


class DASSA:
    """One entry point tying DASS (storage) and DASA (analysis) together.

    Every analysis call streams its source through the one chunk-loop
    kernel (:func:`~repro.core.pipeline.run_chunks`); the profile of
    the most recent run (per-stage seconds, bytes streamed, peak
    resident bytes) is kept in :attr:`last_profile`, and — when degraded
    reads or a ``continue`` failure policy are active — the spans lost to
    faults land in :attr:`last_gaps`.
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        threads: int = 4,
        workdir: str | os.PathLike | None = None,
        chunk_samples: int | None = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        on_error: str = "raise",
        fill_value: float = float("nan"),
        failure_policy: FailurePolicy | None = None,
    ):
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        if chunk_samples is not None and chunk_samples < 1:
            raise ConfigError("chunk_samples must be >= 1")
        if chunk_bytes < 1:
            raise ConfigError("chunk_bytes must be >= 1")
        if on_error not in ("raise", "mask", "skip"):
            raise ConfigError(
                f"on_error must be 'raise', 'mask', or 'skip', got {on_error!r}"
            )
        self.config = DASSAConfig(
            cluster=cluster if cluster is not None else laptop(),
            threads=threads,
            workdir=os.fspath(workdir) if workdir is not None else None,
            chunk_samples=chunk_samples,
            chunk_bytes=chunk_bytes,
            on_error=on_error,
            fill_value=fill_value,
            failure_policy=failure_policy,
        )
        self.last_profile: PipelineProfile | None = None
        self.last_gaps: GapMap | None = None
        #: Coordinate frame of the most recent planned run: maps output
        #: rows/columns back to raw channels/samples when the optimizer
        #: pushed a channel selection or decimation into the source.
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

    @staticmethod
    def _load(source: str | np.ndarray | VCAHandle) -> tuple[np.ndarray, float]:
        """Materialise a source and find its sampling rate."""
        if isinstance(source, np.ndarray):
            return np.asarray(source, dtype=np.float64), 0.0
        if isinstance(source, VCAHandle):
            return np.asarray(source.dataset.read(), dtype=np.float64), (
                source.metadata.sampling_frequency
            )
        with open_vca(source) as vca:
            return (
                np.asarray(vca.dataset.read(), dtype=np.float64),
                vca.metadata.sampling_frequency,
            )

    def _open_source(
        self, source: str | np.ndarray | VCAHandle | ChunkSource
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

    def _finish(self, src: ChunkSource, *results: PipelineResult) -> None:
        """Record a run's profile (shared by every branch result) and its
        fault report.

        ``last_gaps`` merges source-level gaps (input-sample spans a
        degraded VCA read masked) with each result's chunk-level gaps
        (final *output* spans filled under a ``continue`` policy — the
        pipeline may decimate, so the two coordinate systems differ);
        ``None`` when the run was clean.
        """
        self.last_profile = results[0].profile
        gaps = GapMap()
        source_gaps = getattr(src, "gaps", None)
        if source_gaps:
            gaps.merge(source_gaps)
        for result in results:
            if result.gaps:
                gaps.merge(result.gaps)
        self.last_gaps = gaps if gaps else None

    def _chunk_for(self, src: ChunkSource) -> int:
        """An explicit ``chunk_samples`` as given; otherwise the length
        whose blocks — as many as the run holds at once — fit
        ``chunk_bytes``."""
        if self.config.chunk_samples is not None:
            return self.config.chunk_samples
        return auto_chunk_samples(
            src.n_channels,
            src.n_samples,
            budget_bytes=self.config.chunk_bytes // in_flight(self.config.threads),
        )

    # -- analysis side -------------------------------------------------------------
    def local_similarity(
        self,
        source: str | np.ndarray | VCAHandle,
        config: LocalSimilarityConfig | None = None,
        chunk_samples: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 2 over a VCA path / handle / array, streamed in
        overlap-padded chunks.

        Returns ``(similarity_map, window_centers)``; the map covers
        channels K..C-K (array edges have no ±K neighbours).
        """
        config = config if config is not None else LocalSimilarityConfig()
        src, owns = self._open_source(source)
        try:
            result, centers = streamed_local_similarity(
                src,
                config,
                chunk_samples=(
                    chunk_samples if chunk_samples is not None else self._chunk_for(src)
                ),
                threads=self.config.threads,
                policy=self.config.failure_policy,
            )
        finally:
            if owns:
                src.close()
        self._finish(src, result)
        return result.output, centers

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
        source: str | np.ndarray | VCAHandle,
        config: InterferometryConfig | None = None,
        chunk_samples: int | None = None,
    ) -> np.ndarray:
        """Algorithm 3: per-channel correlation against the master channel,
        streamed so the raw record is never resident at once."""
        src, owns = self._open_source(source)
        try:
            if config is None:
                config = InterferometryConfig(fs=src.fs if src.fs > 0 else 500.0)
            result = streamed_interferometry(
                src,
                config,
                chunk_samples=(
                    chunk_samples if chunk_samples is not None else self._chunk_for(src)
                ),
                threads=self.config.threads,
                policy=self.config.failure_policy,
            )
        finally:
            if owns:
                src.close()
        self._finish(src, result)
        return result.output

    def sta_lta(
        self,
        source: str | np.ndarray | VCAHandle,
        nsta: int,
        nlta: int,
        chunk_samples: int | None = None,
    ) -> np.ndarray:
        """Classic STA/LTA ratios per channel, streamed with an
        ``nlta - 1``-sample lookback halo."""
        src, owns = self._open_source(source)
        try:
            result = streamed_sta_lta(
                src,
                nsta,
                nlta,
                chunk_samples=(
                    chunk_samples if chunk_samples is not None else self._chunk_for(src)
                ),
                threads=self.config.threads,
                policy=self.config.failure_policy,
            )
        finally:
            if owns:
                src.close()
        self._finish(src, result)
        return result.output

    def stack(
        self,
        source: str | np.ndarray | VCAHandle,
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
        from repro.core.stacking import streamed_stack

        src, owns = self._open_source(source)
        try:
            if config is None:
                config = InterferometryConfig(fs=src.fs if src.fs > 0 else 500.0)
            result = streamed_stack(
                src,
                config,
                window_seconds,
                overlap=overlap,
                max_lag_seconds=max_lag_seconds,
                method=method,
                power=power,
                chunk_samples=(
                    chunk_samples if chunk_samples is not None else self._chunk_for(src)
                ),
                policy=self.config.failure_policy,
            )
        finally:
            if owns:
                src.close()
        self._finish(src, result)
        return result.output

    def noise_correlations(
        self,
        source: str | np.ndarray | VCAHandle,
        config: InterferometryConfig | None = None,
        max_lag_seconds: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Time-domain noise correlation functions (virtual shot gather)."""
        data, fs = self._load(source)
        if config is None:
            config = InterferometryConfig(fs=fs if fs > 0 else 500.0)
        return noise_correlation_functions(data, config, max_lag_seconds)

    # -- lazy planned analysis -----------------------------------------------------
    def plan(
        self,
        source: str | np.ndarray | VCAHandle | ChunkSource,
        channels: tuple[int, int] | None = None,
        decimate: int = 1,
        tune: bool = False,
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
        execute it once per chunk.  ``tune=True`` selects chunk size and
        threads from the facade's cluster model when no explicit
        ``chunk_samples`` is configured.
        """
        return AnalysisPlan(
            self, source, channels=channels, decimate=decimate, tune=tune
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
        tune: bool = False,
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
        self._tune = bool(tune)
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
        config: InterferometryConfig,
        label: str | None = None,
    ) -> "AnalysisPlan":
        """Algorithm 3; ``config.fs`` is the planned stream's rate and
        ``config.master_channel`` counts from the selected range."""
        return self._add("interferometry", label, {"config": config})

    def sta_lta(
        self, nsta: int, nlta: int, label: str | None = None
    ) -> "AnalysisPlan":
        """Classic STA/LTA ratios per channel of the planned stream."""
        return self._add("sta_lta", label, {"nsta": nsta, "nlta": nlta})

    def stack(
        self,
        config: InterferometryConfig,
        window_seconds: float,
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
        from repro.core.interferometry import (
            interferometry_operators,
            master_spectrum,
        )
        from repro.core.local_similarity import LocalSimilarityOp
        from repro.core.stacking import NCFStackSink
        from repro.core.stalta import StaLtaOp

        if not self._branches:
            raise ConfigError("plan has no analysis branches")
        base = Query.scan(src)
        if self._channels is not None:
            base = base.select_channels(*self._channels)
        if self._step > 1:
            base = base.decimate(self._step)
        stream_samples = -(-src.n_samples // self._step)

        queries: list[Query] = []
        posts: list = []
        for kind, label, spec in self._branches:
            if kind == "local_similarity":
                cfg = spec["config"]
                q = base.then(LocalSimilarityOp(cfg))
                centers = cfg.centers(stream_samples) * self._step
                posts.append(lambda out, c=centers: (out, c))
            elif kind == "interferometry":
                cfg = spec["config"]
                mc = cfg.master_channel + (
                    self._channels[0] if self._channels is not None else 0
                )
                master = src.read_strided(
                    mc, mc + 1, 0, src.n_samples, self._step
                )
                mfft = master_spectrum(master, cfg)
                q = base
                for op in interferometry_operators(cfg, master_fft=mfft):
                    q = q.then(op)
                posts.append(None)
            elif kind == "sta_lta":
                q = base.then(StaLtaOp(spec["nsta"], spec["nlta"]))
                posts.append(None)
            else:  # stack
                spec = dict(spec)
                q = base.then(
                    NCFStackSink(
                        spec.pop("config"),
                        spec.pop("window_seconds"),
                        **spec,
                    )
                )
                posts.append(None)
            queries.append(q.with_label(label))
        return queries, posts

    def _optimize(self, src: ChunkSource) -> tuple[PhysicalPlan, list]:
        queries, posts = self._build_queries(src)
        cfg = self._dassa.config
        plan = optimize(
            queries,
            chunk_samples=cfg.chunk_samples,
            threads=cfg.threads,
            cluster=cfg.cluster,
            tune=self._tune,
        )
        self.plan = plan
        return plan, posts

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
            plan, posts = self._optimize(src)
            results = execute_plan(
                plan,
                source=src,
                naive=naive,
                policy=self._dassa.config.failure_policy,
            )
        finally:
            if owns:
                src.close()
        self._dassa._finish(src, *results)
        self._dassa.last_frame = plan.frame
        out: dict = {}
        for (kind, label, _spec), res, post in zip(
            self._branches, results, posts
        ):
            out[label] = post(res.output) if post is not None else res.output
        return out
