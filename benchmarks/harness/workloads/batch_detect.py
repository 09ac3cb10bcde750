"""``batch_detect`` — the paper's Alg. 2/3 use case through the facade.

search -> merge -> local similarity -> detect -> interferometry -> a
planned STA/LTA + local-similarity co-run, on raw contiguous per-minute
files with ``threads=2``.  Operators and the executor do almost all of the
work and reads stay under 5 % of the wall, so an operator or executor
change shows here and a read-path change must not.
"""

from __future__ import annotations

import os

import numpy as np

from repro import DASSA
from repro.core.detection import detect_events
from repro.core.graph import Query
from repro.core.interferometry import (
    InterferometryConfig,
    interferometry_block,
    master_spectrum,
)
from repro.core.local_similarity import (
    LocalSimilarityConfig,
    LocalSimilarityOp,
    local_similarity_block,
)
from repro.core.optimizer import optimize
from repro.core.stalta import StaLtaOp
from repro.storage.chunks import open_stream
from repro.storage.vca import open_vca

import probes
from common import START_STAMP, digest_array, fresh_dir, tree_bytes
from workloads import (
    BaseSession,
    OpClock,
    PassResult,
    base_manifest,
    explained_compute,
    judge,
    read_whole,
    synthesize,
    write_minutes,
)

NAME = "batch_detect"
THREADS = 2
NSTA, NLTA = 50, 500
#: Loose enough that the scaled-down 32-channel scene yields a few dozen
#: picks (vehicles, one array-wide arrival) for the detector to classify.
DETECT = dict(threshold_sigmas=1.25, split_array_wide=True)
#: Streamed vs whole-array interferometry agree to the filter's settle
#: tolerance; this band settles within one chunk (~6e-10 observed).
INTERFEROMETRY_ATOL = 1e-8


def setup(seed: int, params: dict, root: str) -> dict:
    data, gen_s = synthesize(seed, params)
    paths = write_minutes(os.path.join(root, "data"), data, params)
    manifest = base_manifest(NAME, params, data, gen_s)
    manifest.update(root=root, data_dir=os.path.join(root, "data"), paths=paths)
    return manifest


def _interferometry_config(fs: float) -> InterferometryConfig:
    return InterferometryConfig(fs=fs, band=(2.0, 30.0), resample_q=5)


def _event_rows(events) -> list[tuple]:
    return [
        (e.kind, e.channel_lo, e.channel_hi, round(e.t_start, 6),
         round(e.t_end, 6), e.n_cells)
        for e in events
    ]


class Session(BaseSession):
    def __init__(self, manifest: dict):
        super().__init__(manifest)
        self.sim_cfg = LocalSimilarityConfig()
        self.int_cfg = _interferometry_config(self.p["fs"])

    def stored_bytes(self) -> int:
        return tree_bytes(self.m["data_dir"]) + tree_bytes(
            os.path.join(self.m["root"], "work")
        )

    # -- one pass ---------------------------------------------------------------
    def run_pass(self, tr) -> PassResult:
        workdir = fresh_dir(os.path.join(self.m["root"], "work"))
        dassa = DASSA(
            threads=THREADS, chunk_samples=self.p["chunk"], workdir=workdir
        )
        clock = OpClock(tr)
        profiles: list = []
        fs = self.p["fs"]
        self.delivered = 0

        def analysis(name: str, call):
            """One facade analysis over a freshly opened stream — the way
            the facade opens a path (no pool, no cache), plus an IOStats."""
            with clock.op(name):
                with open_stream(vca, iostats=self.stats) as src:
                    with tr.span(f"DASSA.{name}", "core", composite=True) as span:
                        out = call(tr.source(src))
                    self.delivered += src.bytes_streamed // 2  # float64 out, float32 stored
            profiles.append((name, dassa.last_profile, span))
            if span is not None:
                span.explained_s = explained_compute(dassa.last_profile)
            return out

        with clock.op("search_merge"):
            files = tr.wrap(dassa.search, "DASSA.search", "storage")(
                self.m["data_dir"], start=START_STAMP, count=self.p["files"]
            )
            vca = tr.wrap(dassa.merge, "DASSA.merge", "storage")(files)
        simi, centers = analysis(
            "local_similarity",
            lambda src: dassa.local_similarity(src, config=self.sim_cfg),
        )
        with clock.op("detect"):
            events = tr.wrap(dassa.detect, "DASSA.detect", "core")(
                simi, centers, fs, **DETECT
            )
        corr = analysis(
            "interferometry",
            lambda src: dassa.interferometry(src, config=self.int_cfg),
        )
        corun = analysis(
            "corun",
            lambda src: dassa.plan(src)
            .sta_lta(NSTA, NLTA, label="trigger")
            .local_similarity(self.sim_cfg, label="similarity")
            .run(),
        )
        result = clock.finish()

        with open_vca(vca) as handle:
            merged = [os.path.basename(f.path) for f in files] + list(handle.shape)
        self.last = {
            "search_merge": merged,
            "local_similarity": (simi, centers),
            "detect": _event_rows(events),
            "interferometry": corr,
            "corun": (corun["trigger"], corun["similarity"][0]),
            "vca": vca,
        }
        result.profiles = profiles
        result.outputs = {
            "search_merge": repr(merged),
            "local_similarity": digest_array(simi) + digest_array(centers),
            "detect": repr(self.last["detect"]),
            "interferometry": digest_array(corr),
            "corun": digest_array(corun["trigger"])
            + digest_array(corun["similarity"][0]),
        }
        return result

    def corrupt(self) -> None:
        self.last["interferometry"] = self.last["interferometry"] + 1.0

    # -- oracle -------------------------------------------------------------------
    def verify(self, passes: list[PassResult]) -> None:
        """Whole-array references for the final pass; earlier passes must
        reproduce the final pass's outputs digest for digest."""
        whole = read_whole(self.m["paths"])
        fs = self.p["fs"]
        ref_simi, ref_centers = local_similarity_block(whole, self.sim_cfg)
        simi, centers = self.last["local_similarity"]
        ref_corr = interferometry_block(
            whole, self.int_cfg, master_fft=master_spectrum(whole[0:1], self.int_cfg)
        )
        dassa = DASSA(threads=1, chunk_samples=self.p["chunk"])
        naive = (
            dassa.plan(self.last["vca"])
            .sta_lta(NSTA, NLTA, label="trigger")
            .local_similarity(self.sim_cfg, label="similarity")
            .run(naive=True)
        )
        trigger, similarity = self.last["corun"]
        expected_merge = [os.path.basename(p) for p in self.m["paths"]] + list(
            whole.shape
        )
        good = {
            "search_merge": self.last["search_merge"] == expected_merge,
            "local_similarity": np.allclose(simi, ref_simi, rtol=0, atol=1e-9)
            and np.array_equal(centers, ref_centers),
            "detect": self.last["detect"]
            == _event_rows(detect_events(ref_simi, ref_centers, fs, **DETECT)),
            "interferometry": np.allclose(
                self.last["interferometry"], ref_corr, rtol=0,
                atol=INTERFEROMETRY_ATOL,
            ),
            "corun": np.array_equal(trigger, naive["trigger"])
            and np.array_equal(similarity, naive["similarity"][0]),
        }
        judge(passes, good)

    # -- traced pass -> per-layer numbers ------------------------------------------
    def layer_metrics(self, tr, result: PassResult) -> dict:
        speed = result.speed  # raw span/phase seconds -> reference speed

        def span(name: str) -> float:
            return tr.total(name) * speed

        phases: dict[str, float] = {}
        n_chunks = streamed = peak = cse_hits = 0
        busy = lanes = 0.0
        for _name, profile, call_span in result.profiles:
            for phase, seconds in profile.phases.items():
                phases[phase] = phases.get(phase, 0.0) + seconds
            n_chunks += profile.n_chunks
            streamed += profile.bytes_streamed
            peak = max(peak, profile.peak_resident_bytes)
            cse_hits += getattr(profile, "cse_hits", 0)
            if profile.threads > 1:
                busy += sum(s for p, s in profile.phases.items() if p != "read")
                lanes += profile.threads * call_span.duration
        named = {
            "local_similarity": "op_local_similarity_s",
            "filtfilt": "op_filtfilt_s",
            "resample": "op_resample_s",
            "detrend": "op_detrend_s",
            "detrend:prepass": "op_detrend_s",
            "sta_lta": "op_sta_lta_s",
            "read": "read_phase_s",
        }
        ops = dict.fromkeys(list(named.values()) + ["op_other_s"], 0.0)
        for phase, seconds in phases.items():
            ops[named.get(phase, "op_other_s")] += seconds * speed
        record_f64 = self.p["channels"] * self.p["files"] * self.p["spm"] * 8
        metrics = {
            "storage.search_ms": span("DASSA.search") * 1e3,
            "storage.vca_create_ms": span("DASSA.merge") * 1e3,
            "core.alg2_s": span("DASSA.local_similarity"),
            "core.alg3_s": span("DASSA.interferometry"),
            "core.corun_s": span("DASSA.corun"),
            "core.detect_s": span("DASSA.detect"),
            "core.n_chunks": n_chunks,
            "core.halo_overhead": streamed / (len(result.profiles) * record_f64),
            "core.peak_resident_mb": peak / 2**20,
            "core.cse_hits": cse_hits,
            "core.thread_busy_ratio": busy / lanes if lanes else 0.0,
        }
        metrics.update({f"core.{name}": seconds for name, seconds in ops.items()})

        # the co-run's plan shape: two branches off one scan
        base = Query.scan(None)
        queries = [
            base.then(StaLtaOp(NSTA, NLTA)).with_label("trigger"),
            base.then(LocalSimilarityOp(self.sim_cfg)).with_label("similarity"),
        ]
        metrics["core.optimize_ms"] = probes.timed(
            lambda: optimize(queries, chunk_samples=self.p["chunk"], threads=THREADS)
        ) * 1e3

        chunk = read_whole(self.m["paths"][:1])[:, : self.p["chunk"]]
        metrics.update(probes.daslib(chunk, self.p["fs"]))
        metrics.update(probes.arrayudf(chunk, self.p["fs"]))
        metrics.update(probes.simmpi())
        metrics.update(
            probes.parallel_read(
                self.last["vca"],
                self.p["files"],
                self.p["channels"] * self.p["spm"] * 4,
            )
        )
        return metrics
