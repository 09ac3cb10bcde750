"""``archive_scan`` — the read stack with nothing in front of it.

The same samples stored twice — ``raw`` (contiguous, no CRC) and ``packed``
(chunked, ``transpose-zlib``, CRC) — each behind a VCA opened the way the
facade opens a path: no pool, no cache.  Four optimized plans per layout
carry no compute (``full``, a channel ``block``, ``strided`` = decimate(8),
``strided_block`` = both), so planner and executor run with near-free
operators and every read reaches the backend: ``hdf5lite`` + ``storage``
do most of the work, and pushdown, coalescing, codec and CRC changes show
here while operator changes do not.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.graph import Query
from repro.core.optimizer import execute, optimize
from repro.storage.chunks import open_stream
from repro.storage.vca import create_vca

import probes
from common import digest_array, tree_bytes
from workloads import (
    BaseSession,
    OpClock,
    PassResult,
    base_manifest,
    explained_compute,
    judge,
    synthesize,
    write_minutes,
)

NAME = "archive_scan"
LAYOUTS = ("raw", "packed")
PLANS = ("full", "block", "strided", "strided_block")
STEP = 8
PACKED_CHUNK_SAMPLES = 4096


def setup(seed: int, params: dict, root: str) -> dict:
    data, gen_s = synthesize(seed, params)
    manifest = base_manifest(NAME, params, data, gen_s)
    packed = dict(
        chunks=(min(params["channels"], 64), PACKED_CHUNK_SAMPLES),
        codec="transpose-zlib",
        checksum=True,
    )
    files, vcas = {}, {}
    for layout in LAYOUTS:
        files[layout] = write_minutes(
            os.path.join(root, layout), data, params,
            **(packed if layout == "packed" else {}),
        )
        vcas[layout] = create_vca(os.path.join(root, f"{layout}.h5"), files[layout])
    # the oracle's copy of the source blocks, never read by the program
    np.save(os.path.join(root, "blocks.npy"), data)
    manifest.update(
        root=root, files=files, vcas=vcas,
        blocks=os.path.join(root, "blocks.npy"),
        # the same record is stored under both layouts
        logical_bytes=2 * int(data.nbytes),
    )
    return manifest


def _query(plan: str, channels: int) -> Query:
    query = Query.scan(None)
    if "block" in plan:
        query = query.select_channels(channels // 4, channels // 2)
    if "strided" in plan:
        query = query.decimate(STEP)
    return query


def _reference(plan: str, whole: np.ndarray) -> np.ndarray:
    channels = whole.shape[0]
    rows = slice(channels // 4, channels // 2) if "block" in plan else slice(None)
    step = STEP if "strided" in plan else 1
    return whole[rows, ::step].astype(np.float64)


class Session(BaseSession):
    def stored_bytes(self) -> int:
        return sum(
            tree_bytes(os.path.join(self.m["root"], layout))
            + os.path.getsize(self.m["vcas"][layout])
            for layout in LAYOUTS
        )

    def run_pass(self, tr) -> PassResult:
        clock = OpClock(tr)
        profiles, outputs = [], {}
        self.delivered = 0
        optimize_ = tr.wrap(optimize, "optimize", "core")
        for layout in LAYOUTS:
            for plan_name in PLANS:
                kind = f"{plan_name}_{layout}"
                with clock.op(kind):
                    with open_stream(
                        self.m["vcas"][layout], iostats=self.stats
                    ) as src:
                        plan = optimize_(
                            _query(plan_name, self.p["channels"]),
                            chunk_samples=self.p["chunk"],
                        )
                        with tr.span("execute", "core", composite=True) as span:
                            (result,) = execute(
                                plan, source=tr.source(src), iostats=self.stats
                            )
                profiles.append((kind, result.profile, span))
                if span is not None:
                    span.explained_s = explained_compute(result.profile)
                outputs[kind] = result.output
                self.delivered += result.output.size * 4  # stored as float32
        result = clock.finish()
        self.last = outputs
        result.profiles = profiles
        result.outputs = {kind: digest_array(out) for kind, out in outputs.items()}
        return result

    def corrupt(self) -> None:
        self.last["strided_packed"] = self.last["strided_packed"] + 1.0

    def verify(self, passes: list[PassResult]) -> None:
        """Numpy slices of the source blocks, bit for bit."""
        whole = np.load(self.m["blocks"])
        good = {
            f"{plan}_{layout}": np.array_equal(
                self.last[f"{plan}_{layout}"], _reference(plan, whole)
            )
            for layout in LAYOUTS
            for plan in PLANS
        }
        judge(passes, good)

    def layer_metrics(self, tr, result: PassResult) -> dict:
        reads = [s for s in tr.spans if s.name.startswith("ChunkSource.")]
        speed = result.speed  # raw span seconds -> reference speed
        metrics = {
            f"storage.read_{kind}_s": speed * sum(
                s.duration for s in reads if s.op_id == kind
            )
            for kind, _profile, _span in result.profiles
        }
        metrics["storage.read_calls"] = len(reads)
        self_times = tr.self_times()
        # single-threaded here, so the subtraction is exact: what execute()
        # spends outside the source reads and outside any operator phase
        metrics["core.exec_overhead_s"] = speed * sum(
            max(0.0, self_times[span.id] - span.explained_s)
            for _kind, _profile, span in result.profiles
        )
        metrics.update(
            probes.hdf5lite_read(
                self.m["files"]["raw"][0], self.m["files"]["packed"][0]
            )
        )
        return metrics
