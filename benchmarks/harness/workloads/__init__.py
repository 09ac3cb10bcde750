"""The five workloads and what they share.

Each workload module provides

``setup(seed, params, root) -> dict``
    Generator side (runs in the harness process, timed as ``setup_s``):
    turns the seed into inputs on disk using the program's own writers and
    returns a JSON manifest of paths and sizes.  The manifest never carries
    the seed — the measured process sees generated inputs only.

``Session(manifest)``
    Measured side (runs in a fresh interpreter): ``run_pass(tracer)``
    executes one closed-loop pass and returns a :class:`PassResult`;
    ``verify(passes)`` checks every pass's outputs against an oracle that
    does not share the measured code path and marks failed operations;
    ``layer_metrics(tracer, result)`` turns the last (traced) pass into
    the per-layer numbers this workload takes.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.storage.dasfile import das_filename, read_das_file, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.synthetic.generator import fig1b_scene, synthesize_scene
from repro.utils.iostats import IOStats

import calib
from common import START_STAMP

NAMES = (
    "batch_detect",
    "archive_scan",
    "serve_fleet",
    "rt_drip",
    "archive_build",
)


def load(name: str):
    if name not in NAMES:
        raise SystemExit(f"unknown workload {name!r}; choose from {NAMES}")
    return importlib.import_module(f"workloads.{name}")


@dataclass
class Op:
    """One closed-loop operation: its class, latency and verdict.

    ``seconds`` is speed-normalised (see :mod:`calib`); ``raw_seconds`` is
    what the clock read."""

    kind: str
    seconds: float
    raw_seconds: float
    ok: bool = True


@dataclass
class PassResult:
    wall_s: float
    raw_wall_s: float
    ops: list[Op]
    #: whatever ``verify`` needs to judge this pass (digests, logs)
    outputs: dict = field(default_factory=dict)
    #: program-reported profiles collected during the pass (traced metrics)
    profiles: list = field(default_factory=list)
    #: IOStats delta over the pass and its ``(tracer, root span)`` (filled
    #: in by ``measure.py``)
    io: dict = field(default_factory=dict)
    trace: tuple = ()

    @property
    def speed(self) -> float:
        """The pass's mean calibration factor: multiply a raw duration
        taken inside this pass (a span, a program-reported phase) by it."""
        return self.wall_s / self.raw_wall_s


class BaseSession:
    """What every workload's measured side has in common."""

    #: client threads running concurrently inside one pass
    lanes = 1

    def __init__(self, manifest: dict):
        self.m = manifest
        self.p = manifest["params"]
        #: the IOStats handed to every program call that accepts one —
        #: tracing on or off, so both kinds of pass do identical work
        self.stats = IOStats()
        #: float32-equivalent bytes the program delivered in the last pass
        self.delivered = 0
        #: outputs of the most recent pass, kept for the oracle
        self.last: dict = {}

    def close(self) -> None:
        """Release whatever outlives a pass (servers, pools)."""


class OpClock:
    """Times one pass's operations from the harness side, tracing on or
    off, with a calibration probe between every two operations."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: list[Op] = []
        self._probe_s = 0.0
        self._last_probe = self._probe()
        self._started = time.perf_counter()

    def _probe(self) -> float:
        started = time.perf_counter()
        with self.tracer.span("calibration", "harness"):
            reading = calib.probe()
        self._probe_s += time.perf_counter() - started
        return reading

    @contextmanager
    def op(self, kind: str):
        with self.tracer.op(kind):
            started = time.perf_counter()
            yield
            raw = time.perf_counter() - started
        after = self._probe()
        self.ops.append(Op(kind, raw * calib.factor(self._last_probe, after), raw))
        self._last_probe = after

    def finish(self) -> PassResult:
        """Close the pass (call before any post-processing): its wall is
        the operations plus the glue between them, without the probes."""
        raw_wall = time.perf_counter() - self._started - self._probe_s
        raw_ops = sum(op.raw_seconds for op in self.ops)
        ops = sum(op.seconds for op in self.ops)
        # the glue between operations runs at the operations' mean speed
        wall = ops + (raw_wall - raw_ops) * ops / raw_ops
        return PassResult(wall, raw_wall, self.ops)


def explained_compute(profile) -> float:
    """Wall seconds a :class:`PipelineProfile` accounts for beyond its
    reads (which the proxy source already records as child spans):
    operator phases are summed over worker threads."""
    compute = sum(s for name, s in profile.phases.items() if name != "read")
    return compute / max(1, profile.threads)


def judge(passes: list[PassResult], good: dict[str, bool]) -> None:
    """Mark every operation: ``good`` is the oracle's verdict per kind on
    the final pass; earlier passes must also reproduce the final pass's
    output for that kind digest for digest."""
    final = passes[-1].outputs
    for result in passes:
        for op in result.ops:
            op.ok = bool(good[op.kind]) and result.outputs[op.kind] == final[op.kind]


# -- generator-side helpers ----------------------------------------------------

def synthesize(seed: int, params: dict) -> tuple[np.ndarray, float]:
    """The Fig. 1b scene for ``seed`` as one float32 ``(channels, samples)``
    array, plus the seconds the ``synthetic`` layer took to render it."""
    started = time.perf_counter()
    scene = fig1b_scene(
        n_channels=params["channels"],
        fs=params["fs"],
        minutes=params["files"],
        samples_per_minute=params["spm"],
        seed=seed,
    )
    data = synthesize_scene(scene, params["files"], samples_per_minute=params["spm"])
    return data, time.perf_counter() - started


def minute_metadata(params: dict, stamp: str) -> DASMetadata:
    return DASMetadata(
        sampling_frequency=params["fs"],
        spatial_resolution=2.0,
        timestamp=stamp,
        n_channels=params["channels"],
    )


def minute_stamps(params: dict) -> list[str]:
    stamps, stamp = [], START_STAMP
    for _ in range(params["files"]):
        stamps.append(stamp)
        stamp = timestamp_add_seconds(stamp, params["spm"] / params["fs"])
    return stamps


def write_minutes(
    directory: str, data: np.ndarray, params: dict, **write_kwargs
) -> list[str]:
    """Write ``data`` as per-minute DAS files (the acquisition layout)."""
    os.makedirs(directory, exist_ok=True)
    spm = params["spm"]
    paths = []
    for index, stamp in enumerate(minute_stamps(params)):
        path = os.path.join(directory, das_filename(stamp))
        write_das_file(
            path,
            data[:, index * spm : (index + 1) * spm],
            minute_metadata(params, stamp),
            channel_groups=False,
            **write_kwargs,
        )
        paths.append(path)
    return paths


def read_whole(paths: list[str]) -> np.ndarray:
    """The concatenated record behind ``paths`` as float64 — the oracle's
    view of the inputs, read file by file (never through a VCA)."""
    return np.concatenate(
        [read_das_file(path)[0] for path in paths], axis=1
    ).astype(np.float64)


def base_manifest(name: str, params: dict, data: np.ndarray, gen_s: float) -> dict:
    return {
        "workload": name,
        "params": params,
        "raw_bytes": int(data.nbytes),
        #: user bytes the stored footprint is divided by (``stored_ratio``)
        "logical_bytes": int(data.nbytes),
        "gen_s": gen_s,
    }
