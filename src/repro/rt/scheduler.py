"""Cross-file detection scheduling: the seam-state protocol.

The batch pipelines treat one acquisition file as one record.  A
monitoring service must treat the *stream of files* as one record: the
filtfilt settle halo and the similarity/STA-LTA lookback windows
straddle file boundaries, so processing each file independently drops
or distorts detections at every seam.  :class:`SeamScheduler` wraps the
:class:`~repro.core.pipeline.IncrementalRunner` — every pushed file is
just the next piece of an unbounded record, carried state threads the
halo from one file into the next (the bandpass's forward pass runs once
per sample, continued from its carried IIR state; only its backward pass
re-settles per file), and the emitted output tiles exactly what one
batch run over the concatenated record would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.local_similarity import LocalSimilarityConfig, LocalSimilarityOp
from repro.core.operators import FiltFiltOp
from repro.core.pipeline import Operator, StreamPipeline
from repro.core.stalta import StaLtaOp
from repro.daslib import butter
from repro.errors import ConfigError

DETECTORS = ("local_similarity", "sta_lta")


@dataclass(frozen=True)
class DetectorConfig:
    """What the service computes per column of the incoming record.

    ``detector`` picks the map chain's terminal stage: Algorithm 2 local
    similarity (the paper's detector) or classic STA/LTA (the large-N
    baseline).  ``band`` prepends a zero-phase bandpass; ``None`` feeds
    the detector raw samples.
    """

    detector: str = "local_similarity"
    band: tuple[float, float] | None = (0.5, 12.0)
    filter_order: int = 4
    similarity: LocalSimilarityConfig = field(
        default_factory=LocalSimilarityConfig
    )
    nsta: int = 25
    nlta: int = 250

    def __post_init__(self) -> None:
        if self.detector not in DETECTORS:
            raise ConfigError(
                f"detector must be one of {DETECTORS}, got {self.detector!r}"
            )
        if self.band is not None and len(self.band) != 2:
            raise ConfigError("band must be (low_hz, high_hz) or None")

    def operators(self, fs: float) -> list[Operator]:
        """The map chain this detector runs (all stream-safe)."""
        ops: list[Operator] = []
        if self.band is not None:
            if fs <= 0:
                raise ConfigError("a bandpass detector needs fs > 0")
            b, a = butter(self.filter_order, self.band, "bandpass", fs=fs)
            ops.append(FiltFiltOp(b, a))
        if self.detector == "local_similarity":
            ops.append(LocalSimilarityOp(self.similarity))
        else:
            ops.append(StaLtaOp(self.nsta, self.nlta))
        return ops

    def centers(self, j_lo: int, j_hi: int) -> np.ndarray:
        """Absolute input-sample position of output columns [j_lo, j_hi)."""
        j = np.arange(j_lo, j_hi)
        if self.detector == "local_similarity":
            cfg = self.similarity
            return cfg.time_halo + j * cfg.stride
        return j

    @property
    def channel_lo(self) -> int:
        """Absolute channel of the detector's first output row."""
        if self.detector == "local_similarity":
            return self.similarity.channel_offset
        return 0


class SeamScheduler:
    """Feeds acquisition files through one incremental runner, carrying
    filter/window state across file boundaries.

    The runner is built lazily from the first file's geometry
    (``n_channels``, ``fs``); later files must match or the caller
    quarantines them.  :meth:`export_state` / :meth:`import_state`
    round-trip the carried state for checkpoint/resume.
    """

    def __init__(self, config: DetectorConfig | None = None):
        self.config = config if config is not None else DetectorConfig()
        self._runner = None
        self.fs: float | None = None
        self.n_channels: int | None = None

    @property
    def started(self) -> bool:
        return self._runner is not None

    @property
    def seen(self) -> int:
        return self._runner.seen if self._runner is not None else 0

    @property
    def emitted(self) -> int:
        return self._runner.emitted if self._runner is not None else 0

    @property
    def pending_samples(self) -> int:
        return self._runner.pending_samples if self._runner is not None else 0

    def _build(self, n_channels: int, fs: float):
        pipe = StreamPipeline(self.config.operators(fs))
        return pipe.incremental(n_channels, fs=fs)

    def _ensure(self, n_channels: int, fs: float) -> None:
        if self._runner is None:
            self._runner = self._build(n_channels, fs)
            self.n_channels = int(n_channels)
            self.fs = float(fs)
            return
        if int(n_channels) != self.n_channels or float(fs) != self.fs:
            raise ConfigError(
                f"file geometry ({n_channels} ch @ {fs} Hz) does not match "
                f"the running record ({self.n_channels} ch @ {self.fs} Hz)"
            )

    def process(
        self, data: np.ndarray, fs: float, timer=None
    ) -> list[tuple[tuple[int, int], np.ndarray]]:
        """Push the next file's samples; returns the newly emittable
        ``((j_lo, j_hi), block)`` detector-output intervals."""
        data = np.asarray(data)
        if data.ndim != 2:
            raise ConfigError("need a 2-D (channels, samples) array")
        self._ensure(data.shape[0], fs)
        return self._runner.push(data, timer=timer)

    def flush(self, timer=None) -> list[tuple[tuple[int, int], np.ndarray]]:
        """End the current record (acquisition gap or shutdown): clamp the
        right edge like batch execution and emit the deferred tail."""
        if self._runner is None:
            return []
        return self._runner.flush(timer=timer)

    def reset(self) -> None:
        """Forget the current record; the next file starts a new one."""
        self._runner = None
        self.fs = None
        self.n_channels = None

    # -- checkpoint/resume --------------------------------------------------
    def export_state(self) -> dict | None:
        """Carried state of the live record, or ``None`` between records."""
        if self._runner is None:
            return None
        return self._runner.export_state()

    def import_state(self, payload: dict, tail: np.ndarray) -> None:
        """Rebuild the runner from a checkpoint plus the re-read tail."""
        n_channels = int(payload["n_channels"])
        fs = float(payload["fs"])
        runner = self._build(n_channels, fs)
        runner.import_state(payload, tail)
        self._runner = runner
        self.n_channels = n_channels
        self.fs = fs
