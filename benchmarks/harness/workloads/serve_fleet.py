"""``serve_fleet`` — small, warm, concurrent reads through the serving tier.

A raw archive with a factor-4 pyramid and an event catalog behind one
:class:`~repro.serve.DataServer` whose block cache holds the whole archive
and whose quotas refuse nothing.  Two tenant threads each replay a
seed-generated closed-loop schedule: 30 % zoomed-out previews, 30 %
panning previews, 20 % full-resolution windows on half the channels, 20 %
all-channel ``step=8`` windows followed by an ``events()`` call.  This is
the only workload with ``FilePool`` + ``BlockCache`` on, and it uses the
read stack the opposite way to ``archive_scan``: per-request cost
(admission, plan, cache lookup and copy, pyramid slice) dominates, so a
cache or coalescing change that helps cold scans but hurts warm small
reads shows here.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.detection import DetectedEvent
from repro.errors import AdmissionQueueFullError, QuotaExceededError
from repro.rt.events import EventSink, SeamEvent
from repro.serve import (
    DataServer,
    PyramidConfig,
    ServeConfig,
    TenantQuota,
    build_pyramid,
    compute_level,
    level_slice,
)
from repro.storage.vca import create_vca

import calib
from common import digest_array, median, percentile, read_json, tree_bytes, write_json
from workloads import (
    BaseSession,
    Op,
    PassResult,
    base_manifest,
    read_whole,
    synthesize,
    write_minutes,
)

NAME = "serve_fleet"
CACHE_BYTES = 256 << 20
WINDOW_SAMPLES = 4096
STEP = 8
N_EVENTS = 12
#: Operations here are too short, and too concurrent, to bracket with
#: probes.  Instead each tenant runs a few calibration attempts after every
#: ``CALIBRATE_EVERY`` requests — one more cheap request kind, as far as the
#: other tenant can tell — and the pass is normalised by all of them: the
#: machine's speed under the pass's own two-threaded load.
CALIBRATE_EVERY = 12
CALIBRATE_ATTEMPTS = 3
#: One request in this many is kept and replayed against the oracle.
SAMPLE_EVERY = 20
#: High enough that admission never waits or refuses at closed-loop rates.
OPEN_QUOTA = TenantQuota(
    requests_per_s=1e6, request_burst=1e6,
    bytes_per_s=1e12, byte_burst=1e12, max_queue=64,
)


# -- generator side ------------------------------------------------------------

#: Request mix.  The shares are exact in every schedule (only order and
#: positions are random), so the work in a pass does not depend on the seed.
MIX = (("zoom", 0.3), ("pan", 0.3), ("window", 0.2), ("strided", 0.2))


def _schedule(rng, count: int, channels: int, n: int) -> list[dict]:
    window = min(WINDOW_SAMPLES, n // 4)
    kinds = [kind for kind, share in MIX for _ in range(round(share * count))]
    rng.shuffle(kinds)
    requests = []
    for kind in kinds:
        if kind == "zoom":
            requests.append(dict(
                kind="zoom",
                t0=int(rng.integers(0, n // 4)),
                t1=int(rng.integers(3 * n // 4, n)) + 1,
                width=int(rng.integers(80, 200)),
            ))
        elif kind == "pan":
            span = n // 8
            t0 = int(rng.integers(0, n - span))
            requests.append(dict(kind="pan", t0=t0, t1=t0 + span, width=120))
        elif kind == "window":
            t0 = int(rng.integers(0, n - window))
            lo = int(rng.integers(0, channels // 2 + 1))
            requests.append(dict(
                kind="window", t0=t0, t1=t0 + window, lo=lo, hi=lo + channels // 2
            ))
        else:
            span = n // 32
            t0 = int(rng.integers(0, n - span))
            requests.append(dict(kind="strided", t0=t0, t1=t0 + span))
    return requests


def _catalog(rng, n_channels: int, duration_s: float) -> list[SeamEvent]:
    starts = np.sort(rng.uniform(1.0, duration_s - 5.0, N_EVENTS))
    return [
        SeamEvent(
            event=DetectedEvent(
                label=k + 1, kind="unclassified", channel_lo=0,
                channel_hi=min(3, n_channels - 1), t_start=float(t),
                t_end=float(t) + 2.0, peak_similarity=0.9, n_cells=24,
                speed_channels_per_s=0.0,
            ),
            j_start=100 * k, j_end=100 * k + 5,
        )
        for k, t in enumerate(starts)
    ]


def setup(seed: int, params: dict, root: str) -> dict:
    data, gen_s = synthesize(seed, params)
    manifest = base_manifest(NAME, params, data, gen_s)
    paths = write_minutes(os.path.join(root, "data"), data, params)
    archive = create_vca(os.path.join(root, "archive.h5"), paths)
    build_pyramid(archive, PyramidConfig(factor=4))

    n = data.shape[1]
    rng = np.random.default_rng(seed)
    events_path = os.path.join(root, "events.jsonl")
    EventSink(events_path).emit(_catalog(rng, params["channels"], n / params["fs"]))
    requests_path = os.path.join(root, "requests.json")
    write_json(requests_path, [
        _schedule(rng, params["requests"], params["channels"], n)
        for _ in range(params["tenants"])
    ])
    manifest.update(
        root=root, paths=paths, archive=archive,
        events=events_path, requests=requests_path,
    )
    return manifest


# -- measured side -------------------------------------------------------------

def _issue(session, request: dict):
    """Send one scheduled request; ``strided`` is a window read followed by
    an event query (two operations)."""
    kind = request["kind"]
    if kind in ("zoom", "pan"):
        return session.preview(request["t0"], request["t1"], request["width"])
    if kind == "window":
        return session.read_window(
            request["t0"], request["t1"], channels=(request["lo"], request["hi"])
        )
    if kind == "strided":
        return session.read_window(request["t0"], request["t1"], step=STEP)
    return session.events(request["t0"], request["t1"])


class Session(BaseSession):
    def __init__(self, manifest: dict):
        super().__init__(manifest)
        self.lanes = self.p["tenants"]
        self.schedules = read_json(manifest["requests"])
        self.server = DataServer(
            manifest["archive"],
            config=ServeConfig(cache_bytes=CACHE_BYTES, default_quota=OPEN_QUOTA),
            events_path=manifest["events"],
            iostats=self.stats,
        )

    def close(self) -> None:
        self.server.close()

    def stored_bytes(self) -> int:
        return (
            tree_bytes(os.path.join(self.m["root"], "data"))
            + os.path.getsize(self.m["archive"])
            + os.path.getsize(self.m["events"])
        )

    # -- one pass ---------------------------------------------------------------
    def _tenant(self, tid: int, tr) -> tuple[list, list, list]:
        """One tenant's closed loop: its operation rows, the responses it
        kept for the oracle and its calibration readings."""
        record, kept, speed = [], [], []
        session = self.server.session(f"tenant-{tid}")
        for index, request in enumerate(self.schedules[tid]):
            if index % CALIBRATE_EVERY == 0:
                with tr.span("calibration", "harness"):
                    speed.extend(calib.readings(CALIBRATE_ATTEMPTS))
            steps = [request]
            if request["kind"] == "strided":
                steps.append(dict(request, kind="events"))
            for step in steps:
                with tr.op(f"t{tid}-{index}-{step['kind']}"):
                    started = time.perf_counter()
                    try:
                        with tr.span(
                            f"ServeSession.{step['kind']}", "serve", composite=True
                        ) as span:
                            response = _issue(session, step)
                        ok = True
                    except (QuotaExceededError, AdmissionQueueFullError):
                        response, ok = None, False  # refused = failed
                    seconds = time.perf_counter() - started
                if span is not None and response is not None:
                    span.explained_s = getattr(response, "waited_s", 0.0)
                data = getattr(response, "data", None)
                record.append((
                    step["kind"], seconds, ok,
                    data.size * 4 if data is not None else 0,  # float32 stored
                    getattr(response, "level", None) is not None,
                ))
                if index % SAMPLE_EVERY == 0 or not ok:
                    kept.append((step, response))
        return record, kept, speed

    def run_pass(self, tr) -> PassResult:
        source = self.server.source
        self.server.source = tr.source(source)
        try:
            with ThreadPoolExecutor(max_workers=self.lanes) as pool:
                started = time.perf_counter()
                tenants = [
                    pool.submit(self._tenant, tid, tr) for tid in range(self.lanes)
                ]
                lanes = [tenant.result() for tenant in tenants]  # re-raises
                raw_wall = time.perf_counter() - started
        finally:
            self.server.source = source

        speed = calib.factor_during([s for _, _, readings in lanes for s in readings])
        rows = [row for record, _, _ in lanes for row in record]
        ops = [Op(kind, seconds * speed, seconds, ok) for kind, seconds, ok, _, _ in rows]
        result = PassResult(raw_wall * speed, raw_wall, ops)
        self.delivered = sum(nbytes for _, _, _, nbytes, _ in rows)
        previews = [hit for kind, _, _, _, hit in rows if kind in ("zoom", "pan")]
        self.last = {
            "kept": [pair for _, kept, _ in lanes for pair in kept],
            "pyramid_hit_ratio": sum(previews) / len(previews) if previews else 0.0,
        }
        digests = []
        for _step, response in self.last["kept"]:
            data = getattr(response, "data", None)
            digests.append(
                digest_array(data) if data is not None
                else repr([(e.j_start, e.j_end) for e in response or ()])
            )
        result.outputs = {"kept": digests}
        return result

    def corrupt(self) -> None:
        step, response = next(
            pair for pair in self.last["kept"] if pair[0]["kind"] == "window"
        )
        response.data[0, 0] += 1.0

    # -- oracle -------------------------------------------------------------------
    def verify(self, passes: list[PassResult]) -> None:
        """Replay the kept 1-in-20 sample of the final pass against the raw
        record: windows against numpy slices, previews against the
        decimated whole record, event queries against the catalog."""
        whole = read_whole(self.m["paths"])
        fs = self.p["fs"]
        catalog = EventSink(self.m["events"]).load()
        levels: dict[int, np.ndarray] = {}

        def level(factor: int) -> np.ndarray:
            if factor not in levels:
                levels[factor] = compute_level(whole, factor)
            return levels[factor]

        def correct(step: dict, response) -> bool:
            if response is None:
                return False
            t0, t1 = step["t0"], step["t1"]
            if step["kind"] in ("zoom", "pan"):
                j0, j1 = level_slice(response.factor, t0, t1)
                return response.level is not None and np.array_equal(
                    response.data, level(response.factor)[:, j0:j1]
                )
            if step["kind"] == "window":
                return np.array_equal(
                    response.data, whole[step["lo"] : step["hi"], t0:t1]
                )
            if step["kind"] == "strided":
                return np.array_equal(response.data, whole[:, t0:t1:STEP])
            expected = [
                e.key for e in catalog
                if e.event.t_start < t1 / fs and e.event.t_end >= t0 / fs
            ]
            return [e.key for e in response] == expected

        wrong = sum(not correct(step, resp) for step, resp in self.last["kept"])
        final = passes[-1].outputs["kept"]
        for result in passes:
            # same schedule, same archive: every pass must keep the same
            # answers; each wrong or changed one fails one operation
            bad = wrong + sum(a != b for a, b in zip(result.outputs["kept"], final))
            for op in result.ops:
                if bad and op.ok:
                    op.ok = False
                    bad -= 1

    # -- traced pass -> per-layer numbers ------------------------------------------
    def layer_metrics(self, tr, result: PassResult) -> dict:
        by_kind: dict[str, list[float]] = {}
        for op in result.ops:
            by_kind.setdefault(op.kind, []).append(op.seconds * 1e3)
        requests = [ms for values in by_kind.values() for ms in values]
        admission = self.server.admission.snapshot().values()
        io = result.io
        lookups = io["cache_hits"] + io["cache_misses"]
        handles = io["pool_hits"] + io["pool_misses"]
        metrics = {
            "serve.req_per_s": len(requests) / result.wall_s,
            "serve.lat_p50_ms": median(requests),
            "serve.lat_p99_ms": percentile(requests, 99),
            "serve.admit_wait_p95_ms": max(
                t["wait"]["p95_s"] or 0.0 for t in admission
            ) * 1e3,
            "serve.rejected": sum(
                t["rejected_quota"] + t["rejected_queue"] for t in admission
            ),
            "serve.backend_bytes_per_req": io["bytes_read"] / len(requests),
            "serve.pyramid_hit_ratio": self.last["pyramid_hit_ratio"],
            "hdf5lite.cache_hit_ratio": io["cache_hits"] / lookups if lookups else 0.0,
            "hdf5lite.cache_evictions": io["cache_evictions"],
            "hdf5lite.pool_hit_ratio": io["pool_hits"] / handles if handles else 0.0,
        }
        for kind in ("zoom", "pan", "window", "strided", "events"):
            metrics[f"serve.{kind}_p50_ms"] = (
                median(by_kind[kind]) if kind in by_kind else 0.0
            )
        return metrics
