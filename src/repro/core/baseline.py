"""The MATLAB-style baseline pipeline (the Fig. 9 comparison target).

The geophysics team's production code (per the paper) is MATLAB that

* processes the array **stage at a time**, materialising every
  intermediate,
* iterates channels in interpreted loops for the hand-written stages
  (only the built-in kernels — FFT, BLAS — use MATLAB's implicit
  threading), so "it is difficult for the whole MATLAB code pipeline to
  be parallelized",

whereas DASSA parallelises the *entire* fused pipeline across threads.
Both entry points here execute the *same* operator graph
(:func:`~repro.core.interferometry.interferometry_operators`) under the
two Fig. 9 policies: ``matlab_style_pipeline`` via
:func:`~repro.core.pipeline.run_materialized` (stage at a time,
interpreted channel loops, whole-array intermediates) and
``dassa_pipeline`` via :func:`~repro.core.pipeline.run_chunks` (fused
chain, thread-parallel channel blocks, shared master spectrum).
``Fig9Model`` is the corresponding analytic (Amdahl +
interpreter-overhead) model used to project the paper-scale 16x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.interferometry import (
    InterferometryConfig,
    interferometry_operators,
    master_bound_operators,
)
from repro.core.pipeline import Branch, PipelineResult, run_chunks, run_materialized
from repro.errors import ConfigError
from repro.storage.chunks import as_source
from repro.utils.timer import Timer


def matlab_style_pipeline(
    data: np.ndarray,
    config: InterferometryConfig,
    timer: Timer | None = None,
) -> np.ndarray:
    """Algorithm 3 the way the MATLAB codes run it: stage by stage over
    the whole array, channel loops interpreted, every intermediate
    materialised."""
    result = matlab_style_run(data, config, timer=timer)
    return result.output


def matlab_style_run(
    data: np.ndarray,
    config: InterferometryConfig,
    timer: Timer | None = None,
) -> PipelineResult:
    """Like :func:`matlab_style_pipeline` but returning the full
    :class:`~repro.core.pipeline.PipelineResult` (whole-array
    peak-resident bytes included — the materialising side of the Fig. 9
    memory comparison)."""
    return run_materialized(
        interferometry_operators(config),
        data,
        fs=config.fs,
        timer=timer,
        interpreted=True,
    )


def dassa_pipeline(
    data: np.ndarray,
    config: InterferometryConfig,
    threads: int = 12,
    timer: Timer | None = None,
) -> np.ndarray:
    """The DASSA execution of the same analysis: the whole fused pipeline
    runs on each thread's channel block concurrently (HAEE on one node),
    with the master spectrum computed once and shared."""
    result = dassa_run(data, config, threads=threads, timer=timer)
    return result.output


def dassa_run(
    data: np.ndarray,
    config: InterferometryConfig,
    threads: int = 12,
    timer: Timer | None = None,
    chunk_samples: int | None = None,
) -> PipelineResult:
    """The streaming-executor form of :func:`dassa_pipeline`.

    ``chunk_samples=None`` processes one whole-record chunk (the paper's
    single-node setting: the node's slab is in memory and only channels
    are split across threads); a finite value bounds the resident block
    as well — the same graph under a different chunking policy.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigError("need a 2-D (channels, time) array")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    src = as_source(data, fs=config.fs)
    # Master spectrum once (shared across threads, not duplicated).
    ops = master_bound_operators(src, config)
    chunk = src.n_samples if chunk_samples is None else chunk_samples
    return run_chunks(src, [], [Branch.of(ops)], chunk, threads, timer)[0]


@dataclass(frozen=True)
class Fig9Model:
    """Analytic single-node model of the MATLAB-vs-DASSA gap.

    MATLAB: only the built-in-kernel fraction ``parallel_fraction`` of
    the work uses the node's threads (Amdahl), and the interpreted
    stage-at-a-time structure costs ``interpreter_factor`` extra on the
    serial remainder.  DASSA: the whole pipeline is thread-parallel with
    ApplyMT's small coordination overhead.
    """

    threads: int = 12
    parallel_fraction: float = 0.38
    interpreter_factor: float = 2.3
    thread_coordination: float = 0.03

    def matlab_time(self, work_seconds: float) -> float:
        f = self.parallel_fraction
        serial = (1.0 - f) * work_seconds * self.interpreter_factor
        parallel = f * work_seconds / self.threads
        return serial + parallel

    def dassa_time(self, work_seconds: float) -> float:
        overhead = 1.0 + self.thread_coordination * math.log2(max(2, self.threads))
        return work_seconds / self.threads * overhead

    def speedup(self, work_seconds: float = 1.0) -> float:
        """DASSA's advantage; ~16x with the calibrated defaults."""
        return self.matlab_time(work_seconds) / self.dassa_time(work_seconds)
