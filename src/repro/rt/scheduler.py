"""Cross-file detection: what the service computes, and the seam-state
protocol it is computed under.

The batch pipelines treat one acquisition file as one record.  A
monitoring service must treat the *stream of files* as one record: the
filtfilt settle halo and the similarity/STA-LTA lookback windows
straddle file boundaries, so processing each file independently drops
or distorts detections at every seam.  :class:`DetectorConfig` names the
map chain; :class:`~repro.rt.service.RTService` runs it through one
:class:`~repro.core.pipeline.IncrementalRunner` per record — every pushed
file is just the next piece of an unbounded record, carried state
threads the halo from one file into the next (the bandpass's forward
pass runs once per sample, continued from its carried IIR state; only
its backward pass re-settles per file), and the emitted output tiles
exactly what one batch run over the concatenated record would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.local_similarity import LocalSimilarityConfig, LocalSimilarityOp
from repro.core.operators import FiltFiltOp
from repro.core.pipeline import Operator
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
