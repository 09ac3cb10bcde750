"""DASSA core — the framework facade and the two case-study pipelines.

* :mod:`repro.core.local_similarity` — earthquake detection via local
  similarity (paper Algorithm 2, after Li et al. 2018),
* :mod:`repro.core.interferometry` — traffic-noise / ambient-noise
  interferometry (paper Algorithm 3, after Dou et al. 2017),
* :mod:`repro.core.detection` — event picking and classification on
  similarity maps (the Fig. 10 analysis),
* :mod:`repro.core.baseline` — the MATLAB-style serial pipeline DASSA is
  compared against in Fig. 9,
* :mod:`repro.core.framework` — the ``DASSA`` facade: search → merge →
  analyse in three calls (the paper's future-work "Python API"); every
  analysis it offers is an :class:`AnalysisPlan` branch,
* :mod:`repro.core.pipeline` / :mod:`repro.core.operators` — the
  streaming chunked execution core: overlap-aware operators, the one
  chunk-loop kernel every chain runs through, and the materialised
  (MATLAB-style) reference execution of the same graphs,
* :mod:`repro.core.graph` / :mod:`repro.core.optimizer` — the lazy query
  planner, lowered onto that kernel,
* :mod:`repro.core.autoselect` — node-count and engine selection from
  the machine model (the paper's §VIII future work).
"""

from repro.core.detection import DetectedEvent, detect_events
from repro.core.framework import DASSA, AnalysisPlan
from repro.core.interferometry import (
    InterferometryConfig,
    interferometry_block,
    interferometry_operators,
    preprocess_operators,
    traffic_noise_udf,
)
from repro.core.local_similarity import (
    LocalSimilarityConfig,
    LocalSimilarityOp,
    local_similarity_block,
    local_similarity_udf,
)
from repro.core.operators import (
    CorrelateOp,
    DecimateOp,
    DetrendOp,
    FFTSink,
    FiltFiltOp,
    TaperOp,
    WhitenOp,
)
from repro.core.pipeline import (
    OpContext,
    Operator,
    PipelineProfile,
    PipelineResult,
    SinkOp,
    StreamPipeline,
    run_materialized,
)
from repro.core.stacking import (
    NCFStackSink,
    linear_stack,
    phase_weighted_stack,
    stack_snr,
    window_ncfs,
)
from repro.core.stalta import (
    StaLtaOp,
    array_detections,
    classic_sta_lta,
    trigger_onset,
)
from repro.core.graph import (
    ChannelSelectOp,
    CoordFrame,
    Query,
    SubsampleOp,
    verify_geometry,
)
from repro.core.optimizer import (
    PhysicalPlan,
    execute,
    explain,
    optimize,
)
from repro.core.autoselect import (
    PlanOption,
    best_plan,
    plan,
)
from repro.core.velocity import VelocityFit, fit_moveout, pick_arrivals

__all__ = [
    "DASSA",
    "AnalysisPlan",
    "LocalSimilarityConfig",
    "LocalSimilarityOp",
    "local_similarity_block",
    "local_similarity_udf",
    "InterferometryConfig",
    "interferometry_block",
    "interferometry_operators",
    "preprocess_operators",
    "traffic_noise_udf",
    "DetectedEvent",
    "detect_events",
    "window_ncfs",
    "linear_stack",
    "phase_weighted_stack",
    "stack_snr",
    "NCFStackSink",
    "classic_sta_lta",
    "trigger_onset",
    "array_detections",
    "StaLtaOp",
    "VelocityFit",
    "fit_moveout",
    "pick_arrivals",
    "plan",
    "best_plan",
    "PlanOption",
    # lazy query layer
    "Query",
    "CoordFrame",
    "ChannelSelectOp",
    "SubsampleOp",
    "verify_geometry",
    "PhysicalPlan",
    "optimize",
    "execute",
    "explain",
    # streaming execution core
    "OpContext",
    "Operator",
    "SinkOp",
    "StreamPipeline",
    "run_materialized",
    "PipelineProfile",
    "PipelineResult",
    "DetrendOp",
    "TaperOp",
    "FiltFiltOp",
    "DecimateOp",
    "FFTSink",
    "WhitenOp",
    "CorrelateOp",
]
