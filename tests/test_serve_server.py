"""DataServer/ServeSession: windows, previews, events, degraded reads.

The contract under test (``repro.serve.server``):

* ``read_window`` is bit-exact to slicing the raw record —
  ``raw[lo:hi, t0:t1][:, ::step]`` — and, data and gaps, to the planner
  asked for the same window, on clean and degraded archives alike: it is
  one read of a :class:`~repro.storage.chunks.SourceView`, and never
  enters the chunk loop;
* ``preview`` served from a stored pyramid level is pixel-identical to
  the raw-path computation when the pixel pitch aligns with the level's
  factor (both emit on the absolute lattice ``j * factor``);
* a vanished minute degrades, never errors: NaN spans in window data,
  clipped :class:`~repro.storage.gaps.GapSpan` rows in the result, and
  masked preview pixels;
* every request admits first — quota rejections are the typed taxonomy
  errors and land in the tenant's metrics — and records its latency.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import optimizer, pipeline
from repro.core.detection import DetectedEvent
from repro.core.graph import Query
from repro.core.optimizer import execute, optimize
from repro.errors import QuotaExceededError, ServeError
from repro.faults.inject import FaultInjector
from repro.hdf5lite import File
from repro.rt.events import EventSink, SeamEvent
from repro.serve import (
    DataServer,
    PyramidConfig,
    ServeConfig,
    TenantQuota,
    build_pyramid,
    compute_level,
)
from repro.storage.chunks import SourceView, open_stream
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.storage.vca import create_vca
from repro.utils.iostats import IOStats

N_CHANNELS = 8
MINUTES = 3
SPM = 600  # samples per minute-file
FS = 10.0


def make_vca(root: str, seed: int = 7, minutes: int = MINUTES, checksum: bool = False):
    rng = np.random.default_rng(seed)
    stamp = "170620100545"
    paths = []
    for _ in range(minutes):
        block = rng.normal(size=(N_CHANNELS, SPM)).astype(np.float32)
        path = os.path.join(root, das_filename(stamp))
        write_das_file(
            path,
            block,
            DASMetadata(
                sampling_frequency=FS,
                spatial_resolution=2.0,
                timestamp=stamp,
                n_channels=N_CHANNELS,
            ),
            channel_groups=False,
            checksum=checksum,
        )
        paths.append(path)
        stamp = timestamp_add_seconds(stamp, 60)
    return create_vca(os.path.join(root, "arch.h5"), paths), paths


@pytest.fixture()
def archive(tmp_path):
    vca, paths = make_vca(str(tmp_path))
    build_pyramid(vca, PyramidConfig(factor=4, min_samples=32))
    return vca, paths


def raw_record(vca: str) -> np.ndarray:
    with File(vca, "r") as f:
        return np.asarray(f["VCA"][:, :], dtype=np.float64)


# -- windows -----------------------------------------------------------------

def test_read_window_bit_exact_vs_raw_slice(archive):
    vca, _ = archive
    raw = raw_record(vca)
    with DataServer(vca) as server:
        session = server.session("viewer")
        for (t0, t1), channels, step in [
            ((0, raw.shape[1]), None, 1),
            ((100, 700), (2, 6), 3),
            ((599, 601), (0, 1), 1),  # straddles a file seam
            ((37, 1788), (1, 7), 7),
        ]:
            result = session.read_window(t0, t1, channels=channels, step=step)
            lo, hi = channels if channels else (0, N_CHANNELS)
            np.testing.assert_array_equal(
                result.data, raw[lo:hi, t0:t1][:, ::step]
            )
            assert (result.t0, result.t1, result.step) == (t0, t1, step)
            assert (result.channel_lo, result.channel_hi) == (lo, hi)
            assert result.gaps == []
            assert result.waited_s >= 0.0
            # ... and to the planner asked directly for the same window
            query = Query.scan(None).select_channels(lo, hi)
            if step > 1:
                query = query.decimate(step)
            with open_stream(vca) as src:
                (direct,) = execute(
                    optimize(query), source=SourceView(src, t0=t0, t1=t1)
                )
            np.testing.assert_array_equal(result.data, direct.output)


def test_read_window_validates(archive):
    vca, _ = archive
    with DataServer(vca) as server:
        session = server.session("viewer")
        with pytest.raises(ServeError):
            session.read_window(-1, 10)
        with pytest.raises(ServeError):
            session.read_window(0, 10_000_000)
        with pytest.raises(ServeError):
            session.read_window(10, 10)
        with pytest.raises(ServeError):
            session.read_window(0, 10, channels=(5, 3))
        with pytest.raises(ServeError):
            session.read_window(0, 10, step=0)


SEAM_MINUTES = 4
LOST = (SPM, 3 * SPM)  # minute 1 removed, minute 2 corrupted


@pytest.fixture(scope="module")
def seam_archives(tmp_path_factory):
    """The same four checksummed minutes twice: as written, and with minute
    1 removed and one bit of minute 2 flipped.  Returns both VCAs and the
    clean record."""
    clean, _ = make_vca(
        str(tmp_path_factory.mktemp("clean")), minutes=SEAM_MINUTES, checksum=True
    )
    degraded, paths = make_vca(
        str(tmp_path_factory.mktemp("degraded")), minutes=SEAM_MINUTES, checksum=True
    )
    injector = FaultInjector(seed=3)
    injector.vanish(paths[1])
    injector.bit_flip(paths[2])
    return {"clean": clean, "degraded": degraded}, raw_record(clean)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_read_window_is_the_planner_route_across_seams(seam_archives, data):
    archives, raw = seam_archives
    n = raw.shape[1]

    def near_a_seam():
        at = data.draw(st.integers(0, SEAM_MINUTES)) * SPM
        return min(max(at + data.draw(st.integers(-20, 20)), 0), n)

    t0, t1 = near_a_seam(), near_a_seam()
    assume(t0 < t1)
    lo = data.draw(st.integers(0, N_CHANNELS - 1))
    hi = data.draw(st.integers(lo + 1, N_CHANNELS))
    step = data.draw(st.integers(1, 16))
    kind = data.draw(st.sampled_from(sorted(archives)))
    vca = archives[kind]
    with DataServer(vca) as server:
        got = server.session("viewer").read_window(t0, t1, channels=(lo, hi), step=step)
    query = Query.scan(None).select_channels(lo, hi)
    if step > 1:
        query = query.decimate(step)
    with open_stream(vca, on_error="mask") as src:
        (direct,) = execute(optimize(query), source=SourceView(src, t0=t0, t1=t1))
        direct_gaps = [(g.source, g.t0, g.t1, g.reason) for g in src.gaps]
    np.testing.assert_array_equal(got.data, direct.output)
    assert [(g.source, g.t0, g.t1, g.reason) for g in got.gaps] == direct_gaps

    want = raw[lo:hi, t0:t1][:, ::step].copy()
    lattice = np.arange(t0, t1, step)
    lost = (lattice >= LOST[0]) & (lattice < LOST[1])
    if kind == "clean":
        assert got.gaps == []
    else:
        want[:, lost] = np.nan
        assert all(LOST[0] <= g.t0 < g.t1 <= LOST[1] for g in got.gaps)
        covered = [any(g.t0 <= t < g.t1 for g in got.gaps) for t in lattice]
        np.testing.assert_array_equal(covered, lost)
    np.testing.assert_array_equal(got.data, want)


def test_read_window_never_enters_the_chunk_loop(archive, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("entered run_chunks")

    monkeypatch.setattr(pipeline, "run_chunks", refuse)
    monkeypatch.setattr(optimizer, "run_chunks", refuse)
    vca, _ = archive
    raw = raw_record(vca)
    with DataServer(vca) as server:
        session = server.session("viewer")
        got = session.read_window(37, 1788, channels=(1, 7), step=7)
        np.testing.assert_array_equal(got.data, raw[1:7, 37:1788:7])
        # the patch bites: a preview no stored level serves computes, and
        # goes through the chunk loop
        with pytest.raises(AssertionError, match="run_chunks"):
            session.preview(0, 1800, width=64, use_pyramid=False)


# -- previews ----------------------------------------------------------------

def test_preview_pyramid_matches_raw_path_when_aligned(archive):
    vca, _ = archive
    n = raw_record(vca).shape[1]
    with DataServer(vca) as server:
        session = server.session("viewer")
        width = n // 16  # pixel pitch == level-2 factor: paths align
        via_pyramid = session.preview(0, n, width, channels=(1, 5))
        assert via_pyramid.level == 2 and via_pyramid.factor == 16
        via_raw = session.preview(
            0, n, width, channels=(1, 5), use_pyramid=False
        )
        assert via_raw.level is None and via_raw.factor == 16
        np.testing.assert_array_equal(via_pyramid.data, via_raw.data)
        assert not via_pyramid.mask.any()
        assert via_pyramid.data.shape == (4, -(-n // 16))


def test_pyramid_preview_reads_fewer_backend_bytes_than_the_raw_path(archive):
    """Each path on a fresh server, so both byte counts are cold-cache."""
    vca, _ = archive

    def cold_preview(use_pyramid):
        stats = IOStats()
        with DataServer(vca, iostats=stats) as server:
            n = server.n_samples
            before = stats.full_snapshot()["bytes_read"]
            preview = server.session("probe").preview(
                0, n, n // 16, use_pyramid=use_pyramid
            )
            return preview, stats.full_snapshot()["bytes_read"] - before

    via_pyramid, pyramid_bytes = cold_preview(True)
    via_raw, raw_bytes = cold_preview(False)
    assert via_pyramid.level is not None and via_raw.level is None
    np.testing.assert_array_equal(via_pyramid.data, via_raw.data)
    assert 0 < pyramid_bytes < raw_bytes


def test_preview_full_width_is_the_raw_window(archive):
    # pixel pitch 1: no level fits, no decimation — the preview *is* the
    # raw window
    vca, _ = archive
    raw = raw_record(vca)
    with DataServer(vca) as server:
        preview = server.session("v").preview(200, 500, width=300)
        assert preview.level is None and preview.factor == 1
        np.testing.assert_array_equal(preview.data, raw[:, 200:500])


def test_preview_validates_width(archive):
    vca, _ = archive
    with DataServer(vca) as server:
        with pytest.raises(ServeError):
            server.session("v").preview(0, 100, width=0)


# -- degraded reads ----------------------------------------------------------

def test_degraded_window_masks_and_reports_gaps(tmp_path):
    vca, paths = make_vca(str(tmp_path))
    os.remove(paths[1])  # the middle minute vanishes: samples [600, 1200)
    with DataServer(vca) as server:
        session = server.session("viewer")
        result = session.read_window(0, 1800)
        assert np.isnan(result.data[:, 600:1200]).all()
        assert np.isfinite(result.data[:, :600]).all()
        assert np.isfinite(result.data[:, 1200:]).all()
        assert [(g.t0, g.t1) for g in result.gaps] == [(600, 1200)]

        # a clipped view of the same gap
        result = session.read_window(500, 700)
        assert [(g.t0, g.t1) for g in result.gaps] == [(600, 700)]

        # windows clear of the gap report none
        assert session.read_window(0, 500).gaps == []


def test_degraded_pyramid_preview_masks_gap_pixels(tmp_path):
    vca, paths = make_vca(str(tmp_path))
    with open_stream(vca) as src:
        clean = compute_level(src.read(0, 1800), 16)
    os.remove(paths[1])
    # build *through* the degraded source with the default config: the
    # NaN span decimates into NaN pixels at every level, widened by the
    # FIR half-length (10 * factor raw samples) and no further
    build_pyramid(
        vca, PyramidConfig(factor=4, min_samples=32), on_error="mask"
    )
    with DataServer(vca) as server:
        preview = server.session("viewer").preview(0, 1800, width=1800 // 16)
        assert preview.level == 2
        centres = np.arange(preview.data.shape[1]) * 16
        masked = (centres + 160 >= 600) & (centres - 160 <= 1199)
        np.testing.assert_array_equal(
            preview.mask, np.broadcast_to(masked, preview.mask.shape)
        )
        # minutes 1 and 3 outside the fringe: the clean build's pixels
        np.testing.assert_array_equal(
            preview.data[:, ~masked], clean[:, ~masked]
        )


# -- events ------------------------------------------------------------------

def _event(label: int, t_start: float, t_end: float) -> SeamEvent:
    return SeamEvent(
        event=DetectedEvent(
            label=label,
            kind="unclassified",
            channel_lo=0,
            channel_hi=3,
            t_start=t_start,
            t_end=t_end,
            peak_similarity=0.9,
            n_cells=12,
            speed_channels_per_s=0.0,
        ),
        j_start=label * 100,
        j_end=label * 100 + 5,
    )


def test_events_filtered_to_window(archive, tmp_path):
    vca, _ = archive
    log = tmp_path / "events.jsonl"
    EventSink(str(log)).emit([_event(1, 5.0, 8.0), _event(2, 100.0, 110.0)])
    with DataServer(vca, events_path=str(log)) as server:
        session = server.session("viewer")
        # raw samples / fs: [0, 500) is [0s, 50s) — only the first event
        hits = session.events(0, 500)
        assert [ev.event.label for ev in hits] == [1]
        assert [ev.event.label for ev in session.events(0, 1800)] == [1, 2]
        assert session.events(200, 500) == []  # [20s, 50s): between them


def test_events_without_catalog_is_empty(archive):
    vca, _ = archive
    with DataServer(vca) as server:
        assert server.session("viewer").events(0, 100) == []


def test_events_cache_sees_append_within_one_mtime_tick(archive, tmp_path):
    """Regression: two appends inside one mtime granularity tick must
    not serve the stale first load — freshness keys on (mtime, size)."""
    vca, _ = archive
    log = tmp_path / "events.jsonl"
    EventSink(str(log)).emit([_event(1, 5.0, 8.0)])
    with DataServer(vca, events_path=str(log)) as server:
        session = server.session("viewer")
        assert [ev.event.label for ev in session.events(0, 1800)] == [1]
        stat = os.stat(log)
        EventSink(str(log)).emit([_event(2, 9.0, 12.0)])
        # Pin the mtime back to the first append's value: the second
        # append landed "within the same tick" as far as mtime can tell.
        os.utime(log, (stat.st_atime, stat.st_mtime))
        assert [ev.event.label for ev in session.events(0, 1800)] == [1, 2]


# -- admission integration ---------------------------------------------------

def test_quota_rejection_is_typed_and_counted(archive):
    vca, _ = archive
    config = ServeConfig(
        default_quota=TenantQuota(
            requests_per_s=0.001, request_burst=1.0, max_queue=0
        )
    )
    with DataServer(vca, config=config) as server:
        session = server.session("tenant-a")
        session.read_window(0, 100, wait=False)
        with pytest.raises(QuotaExceededError) as err:
            session.read_window(0, 100, wait=False)
        assert err.value.tenant == "tenant-a"
        metrics = session.metrics()
        assert metrics["admitted"] == 1
        assert metrics["rejected_quota"] == 1
        assert metrics["latency"]["count"] == 1

        # the other tenant's bucket is untouched
        server.session("tenant-b").read_window(0, 100, wait=False)


def test_every_request_kind_records_its_latency(archive, tmp_path):
    vca, _ = archive
    log = tmp_path / "events.jsonl"
    EventSink(str(log)).emit([_event(1, 5.0, 8.0)])
    with DataServer(vca, events_path=str(log)) as server:
        session = server.session("viewer")
        session.read_window(0, 100)
        session.preview(0, 1800, width=64)
        assert len(session.events(0, 1800)) == 1
        metrics = session.metrics()
    assert metrics["admitted"] == 3
    assert metrics["latency"]["count"] == 3


def test_requests_reconcile_actual_backend_bytes(archive):
    """Byte-accurate admission: after each request the tenant's byte
    bucket reflects the *measured* IOStats delta, not the output-size
    estimate, and the reconciliation lands in the metrics."""
    vca, _ = archive
    with DataServer(vca) as server:
        session = server.session("viewer")
        session.read_window(100, 700, channels=(2, 6), step=3)
        metrics = session.metrics()
        assert metrics["reconciled"] == 1
        assert metrics["bytes_actual"] > 0
        session.preview(0, 1800, width=64)
        metrics = session.metrics()
        assert metrics["reconciled"] == 2
        # The strided, channel-selected window's backend traffic differs
        # from the dense-output estimate; the settled totals record what
        # the backend really moved.
        assert metrics["bytes_actual"] != metrics["bytes_admitted"]


def test_concurrent_viewers_are_all_admitted_and_all_exact(archive):
    """Four closed-loop tenants against one server with default quotas:
    nothing is refused, and each thread gets what a lone caller gets."""
    vca, _ = archive
    raw = raw_record(vca)
    n, requests, failures = raw.shape[1], 12, []
    with DataServer(vca) as server:
        want_zoom = server.session("reference").preview(0, n, n // 16).data

        def viewer(idx):
            session = server.session(f"viewer-{idx}")
            try:
                for k in range(requests):
                    if k % 2:
                        got = session.preview(0, n, n // 16).data
                        np.testing.assert_array_equal(got, want_zoom)
                    else:
                        t0 = 37 * (idx + k)
                        got = session.read_window(t0, t0 + 300, step=2).data
                        np.testing.assert_array_equal(got, raw[:, t0 : t0 + 300 : 2])
            except Exception as exc:  # surfaced below, on the main thread
                failures.append((idx, exc))

        threads = [threading.Thread(target=viewer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads) and not failures
        for idx in range(4):
            metrics = server.admission.metrics(f"viewer-{idx}")
            assert metrics["admitted"] == requests
            assert metrics["rejected_quota"] == metrics["rejected_queue"] == 0


def test_closed_server_rejects_sessions(archive):
    vca, _ = archive
    server = DataServer(vca)
    server.session("viewer").read_window(0, 10)
    server.close()
    with pytest.raises(ServeError):
        server.session("late")
