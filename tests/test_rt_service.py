"""Service-level tests: seam equivalence against a batch run, fault
injection, kill-and-resume, and the ``python -m repro.rt`` CLI."""

import json
import os

import numpy as np
import pytest

from repro.core.local_similarity import (
    LocalSimilarityConfig,
    LocalSimilarityOp,
    local_similarity_block,
)
from repro.daslib import butter, filtfilt
from repro.rt import (
    DetectorConfig,
    EventPolicy,
    RTService,
    ServiceConfig,
    map_events,
)
from repro.rt.cli import main as rt_main
from repro.storage.dasfile import write_das_file
from repro.storage.metadata import DASMetadata
from repro.synthetic.generator import (
    drip_feed_dataset,
    fig1b_scene,
    synthesize_scene,
)

FS = 50.0
CHANNELS = 48
MINUTES = 4
SPM = 600  # 12 s per "minute" file keeps the test fast

SIM = LocalSimilarityConfig(
    half_window=25, channel_offset=1, half_lag=5, stride=25
)
DETECTOR = DetectorConfig(band=(0.5, 12.0), similarity=SIM)
POLICY = EventPolicy(threshold=0.4, min_fraction=0.25)
FAST = ServiceConfig(
    poll_interval=0.0,
    settle_seconds=0.0,
    stable_polls=1,
    checkpoint_every=1,
    max_retries=2,
)


@pytest.fixture
def scene():
    return fig1b_scene(
        n_channels=CHANNELS, fs=FS, minutes=MINUTES, samples_per_minute=SPM, seed=7
    )


def _drip_all(spool, scene, service, minutes=MINUTES):
    """Land files one at a time, draining the service between arrivals."""
    for _ in drip_feed_dataset(
        spool, minutes, scene=scene, samples_per_minute=SPM
    ):
        service.drain()
    service.drain()


def _event_keys(seam_events):
    return [
        (
            e.j_start,
            e.j_end,
            e.event.kind,
            e.event.channel_lo,
            e.event.channel_hi,
        )
        for e in seam_events
    ]


class TestSeamEquivalence:
    def test_dripped_files_match_batch_run(self, tmp_path, scene, monkeypatch):
        computed = []
        similarity_apply = LocalSimilarityOp.apply

        def counting_apply(op, block, ctx):
            out = similarity_apply(op, block, ctx)
            computed.append(out.shape[-1])
            return out

        monkeypatch.setattr(LocalSimilarityOp, "apply", counting_apply)
        service = RTService(
            tmp_path, detector=DETECTOR, policy=POLICY, config=FAST
        )
        _drip_all(tmp_path, scene, service)
        service.flush()
        streamed = service.sink.load()
        # No fringe compute: flushed, the service has emitted every column
        # of the record's grid and the detector scored hardly any more (a
        # chain handing it the filter's settle halo again reads ~1.5x).
        emitted = len(SIM.centers(MINUTES * SPM))
        assert emitted <= sum(computed) <= 1.05 * emitted

        # One batch pass over the concatenated record.
        data = synthesize_scene(
            scene, MINUTES, samples_per_minute=SPM
        ).astype(np.float64)
        b, a = butter(4, (0.5, 12.0), "bandpass", fs=FS)
        sim_map, centers = local_similarity_block(
            filtfilt(b, a, data, axis=-1), SIM
        )
        batch = map_events(
            sim_map, centers, FS, POLICY, n_channels=CHANNELS, channel_lo=1
        )

        assert len(streamed) == len(batch) > 0
        assert _event_keys(streamed) == _event_keys(batch)
        for got, want in zip(streamed, batch):
            assert got.event.t_start == pytest.approx(want.event.t_start)
            assert got.event.t_end == pytest.approx(want.event.t_end)
            assert got.event.peak_similarity == pytest.approx(
                want.event.peak_similarity, abs=1e-6
            )
            assert got.event.n_cells == want.event.n_cells

    def test_an_event_straddles_a_file_boundary(self, tmp_path, scene):
        service = RTService(
            tmp_path, detector=DETECTOR, policy=POLICY, config=FAST
        )
        _drip_all(tmp_path, scene, service)
        service.flush()
        events = service.sink.load()
        boundaries_s = [k * SPM / FS for k in range(1, MINUTES)]
        straddling = [
            e
            for e in events
            for t in boundaries_s
            if e.event.t_start < t < e.event.t_end
        ]
        assert straddling, (
            "the scene must contain at least one event crossing a file "
            "seam for the equivalence test to mean anything"
        )

    def test_one_file_per_tick_equals_all_at_once(self, tmp_path, scene):
        # All files land before the service starts: same event log.
        list(
            drip_feed_dataset(
                tmp_path, MINUTES, scene=scene, samples_per_minute=SPM
            )
        )
        service = RTService(
            tmp_path, detector=DETECTOR, policy=POLICY, config=FAST
        )
        service.drain()
        service.flush()
        all_at_once = _event_keys(service.sink.load())

        spool2 = tmp_path / "one-at-a-time"
        spool2.mkdir()
        service2 = RTService(
            spool2, detector=DETECTOR, policy=POLICY, config=FAST
        )
        _drip_all(spool2, scene, service2)
        service2.flush()
        assert _event_keys(service2.sink.load()) == all_at_once


class TestKillAndResume:
    @pytest.mark.parametrize("kill_after", [1, 2, 3])
    def test_mid_record_kill_resumes_identically(
        self, tmp_path, scene, kill_after
    ):
        reference = tmp_path / "reference"
        reference.mkdir()
        ref_service = RTService(
            reference, detector=DETECTOR, policy=POLICY, config=FAST
        )
        _drip_all(reference, scene, ref_service)
        ref_service.flush()
        expected = _event_keys(ref_service.sink.load())

        spool = tmp_path / "killed"
        spool.mkdir()
        service = RTService(
            spool, detector=DETECTOR, policy=POLICY, config=FAST
        )
        drip = drip_feed_dataset(
            spool, MINUTES, scene=scene, samples_per_minute=SPM
        )
        done = 0
        for _ in drip:
            service.drain()
            done += 1
            if done == kill_after:
                break
        del service  # SIGKILL stand-in: no flush, no final checkpoint
        for _ in drip:
            pass  # the acquisition keeps writing while the service is down

        resumed = RTService(
            spool, detector=DETECTOR, policy=POLICY, config=FAST
        )
        resumed.drain()
        resumed.flush()
        assert _event_keys(resumed.sink.load()) == expected

    def test_resume_rejects_tampered_files(self, tmp_path, scene):
        service = RTService(
            tmp_path, detector=DETECTOR, policy=POLICY, config=FAST
        )
        drip = drip_feed_dataset(
            tmp_path, MINUTES, scene=scene, samples_per_minute=SPM
        )
        paths = []
        for path in drip:
            paths.append(path)
            service.drain()
            if len(paths) == 2:
                break
        del service
        # Rewrite the last processed file with different samples: the
        # checkpoint's tail digest must refuse to resume against it.
        meta = DASMetadata(
            sampling_frequency=FS,
            spatial_resolution=2.0,
            timestamp=os.path.basename(paths[-1])[8:-3],
            n_channels=CHANNELS,
        )
        write_das_file(
            paths[-1], np.zeros((CHANNELS, SPM), dtype=np.float32), meta
        )
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="digest"):
            RTService(tmp_path, detector=DETECTOR, policy=POLICY, config=FAST)

    @pytest.mark.parametrize("kind", ["vanish", "truncate"])
    def test_resume_survives_unreadable_tail_file(self, tmp_path, scene, kind):
        # A tail file lost or truncated between checkpoint and resume
        # degrades the resume (carried state dropped, reason recorded)
        # instead of killing the service.
        from repro.faults.inject import FaultInjector

        service = RTService(
            tmp_path, detector=DETECTOR, policy=POLICY, config=FAST
        )
        drip = drip_feed_dataset(
            tmp_path, MINUTES, scene=scene, samples_per_minute=SPM
        )
        paths = []
        for path in drip:
            paths.append(path)
            service.drain()
            if len(paths) == 2:
                break
        del service
        FaultInjector(seed=0).inject(kind, paths[-1])

        resumed = RTService(
            tmp_path, detector=DETECTOR, policy=POLICY, config=FAST
        )
        assert resumed.resume_error is not None
        assert resumed.files_done == []
        # The service still ingests and detects: feed the remaining files.
        for _ in drip:
            resumed.drain()
        resumed.drain()
        assert resumed.metrics.files_ingested == MINUTES - len(paths)
        resumed.flush()


class TestFaultInjection:
    def _good_file(self, spool, stamp, data=None):
        if data is None:
            rng = np.random.default_rng(int(stamp))
            data = rng.standard_normal((8, 400)).astype(np.float32)
        meta = DASMetadata(
            sampling_frequency=FS,
            spatial_resolution=2.0,
            timestamp=stamp,
            n_channels=data.shape[0],
        )
        path = os.path.join(spool, f"westSac_{stamp}.h5")
        write_das_file(path, data, meta)
        return path

    def _service(self, spool):
        return RTService(
            spool,
            detector=DetectorConfig(band=None, similarity=SIM),
            policy=POLICY,
            config=FAST,
        )

    def test_zero_length_file_quarantined_service_continues(self, tmp_path):
        service = self._service(tmp_path)
        bad = os.path.join(tmp_path, "westSac_170620100545.h5")
        open(bad, "wb").close()
        self._good_file(tmp_path, "170620100605")
        service.drain()
        assert bad in service.quarantine
        assert "short read" in service.quarantine.reasons[
            os.path.basename(bad)
        ]
        assert service.metrics.files_ingested == 1  # the good one
        assert service.metrics.files_quarantined == 1

    def test_truncated_file_quarantined_after_retries(self, tmp_path):
        service = self._service(tmp_path)
        good = self._good_file(tmp_path, "170620100545")
        bad = self._good_file(tmp_path, "170620100605")
        raw = open(bad, "rb").read()
        with open(bad, "wb") as handle:
            handle.write(raw[:60])  # header torn mid-write
        service.drain()
        assert bad in service.quarantine
        assert service.metrics.files_requeued == FAST.max_retries - 1
        assert service.metrics.files_ingested == 1
        assert good not in service.quarantine

    def test_file_deleted_mid_read_quarantined(self, tmp_path):
        service = self._service(tmp_path)
        doomed = self._good_file(tmp_path, "170620100545")
        survivor = self._good_file(tmp_path, "170620100605")
        announced = service.watcher.scan()
        assert doomed in announced
        for path in announced:
            service.queue.offer(path)
        os.remove(doomed)  # vanishes between announcement and read
        service.drain()
        assert doomed in service.quarantine
        assert "vanished" in service.quarantine.reasons[
            os.path.basename(doomed)
        ]
        assert service.metrics.files_ingested == 1
        assert survivor not in service.quarantine

    def test_geometry_mismatch_quarantined(self, tmp_path):
        service = self._service(tmp_path)
        self._good_file(tmp_path, "170620100545")
        rng = np.random.default_rng(1)
        odd = self._good_file(
            tmp_path,
            "170620100553",  # contiguous stamp: same record, wrong shape
            data=rng.standard_normal((5, 400)).astype(np.float32),
        )
        service.drain()
        assert odd in service.quarantine
        assert "does not match" in service.quarantine.reasons[
            os.path.basename(odd)
        ]
        assert service.metrics.files_ingested == 1

    def test_quarantine_survives_restart(self, tmp_path):
        service = self._service(tmp_path)
        bad = os.path.join(tmp_path, "westSac_170620100545.h5")
        open(bad, "wb").close()
        service.drain()
        assert bad in service.quarantine
        fresh = self._service(tmp_path)
        fresh.drain()  # must not retry the poison file
        assert fresh.metrics.files_ingested == 0
        assert fresh.metrics.files_quarantined == 0  # not re-quarantined


class TestServiceCatalog:
    def test_catalog_tracks_ingested_files(self, tmp_path, scene):
        service = RTService(
            tmp_path, detector=DETECTOR, policy=POLICY, config=FAST
        )
        _drip_all(tmp_path, scene, service)
        assert service.catalog is not None
        assert len(service.catalog) == MINUTES

    def test_catalog_cost_does_not_grow_with_the_spool(self, tmp_path, monkeypatch):
        """Only the first ingested file lists the directory; the rest are
        added to the in-memory index, and the saved index is still the one
        a from-scratch scan builds."""
        from repro.storage import catalog as catalog_module
        from repro.storage.catalog import Catalog

        scans = []
        real_scan = catalog_module.scan_directory
        monkeypatch.setattr(
            catalog_module,
            "scan_directory",
            lambda d, **kw: scans.append(d) or real_scan(d, **kw),
        )
        files, spm = 60, 200
        tiny = fig1b_scene(
            n_channels=8, fs=FS, minutes=files, samples_per_minute=spm, seed=7
        )
        service = RTService(tmp_path, detector=DETECTOR, policy=POLICY, config=FAST)
        paths = []
        drip = drip_feed_dataset(tmp_path, files, scene=tiny, samples_per_minute=spm)
        for path in drip:
            service.drain()
            paths.append(path)
        assert service.metrics.files_ingested == files and len(scans) == 1
        built = Catalog.build(tmp_path).entries
        assert Catalog.load(tmp_path).entries == service.catalog.entries == built
        # add() on its own: any arrival order, a repeat, the same index
        late = Catalog(directory=os.fspath(tmp_path))
        for path in paths[::-1] + paths[:3]:
            late.add(path)
        assert late.entries == built

    def test_same_mtime_tick_file_is_seen(self, tmp_path):
        # Regression: Catalog.stale() used strict '>' so a file landing in
        # the same mtime tick as the index write stayed invisible.
        from repro.storage.catalog import Catalog

        stamp = "170620100545"
        for k in range(2):
            meta = DASMetadata(
                sampling_frequency=FS,
                spatial_resolution=2.0,
                timestamp=stamp,
                n_channels=4,
            )
            write_das_file(
                os.path.join(tmp_path, f"westSac_{stamp}.h5"),
                np.zeros((4, 10), dtype=np.float32),
                meta,
            )
            stamp = "170620100645"
        catalog = Catalog.open(tmp_path)
        assert len(catalog) == 2
        # A third file written in the same tick: freeze the directory
        # mtime to the value the catalog recorded.
        meta = DASMetadata(
            sampling_frequency=FS,
            spatial_resolution=2.0,
            timestamp="170620100745",
            n_channels=4,
        )
        write_das_file(
            os.path.join(tmp_path, "westSac_170620100745.h5"),
            np.zeros((4, 10), dtype=np.float32),
            meta,
        )
        os.utime(tmp_path, (catalog.last_mtime, catalog.last_mtime))
        assert catalog.stale()  # '>=' admits the equal-mtime case
        reopened = Catalog.open(tmp_path)
        assert len(reopened) == 3

    def test_reopening_an_unchanged_directory_neither_scans_nor_writes(
        self, tmp_path, monkeypatch
    ):
        """Saving the sidecar moves the directory's mtime past the one the
        index recorded; that alone must not make the next open rescan."""
        from repro.storage import catalog as catalog_module
        from repro.storage.catalog import CATALOG_NAME, Catalog

        for stamp in ("170620100545", "170620100645", "170620100745"):
            write_das_file(
                os.path.join(tmp_path, f"westSac_{stamp}.h5"),
                np.zeros((4, 10), dtype=np.float32),
                DASMetadata(
                    sampling_frequency=FS,
                    spatial_resolution=2.0,
                    timestamp=stamp,
                    n_channels=4,
                ),
            )
        scans, saves = [], []
        real_scan, real_save = catalog_module.scan_directory, Catalog.save
        monkeypatch.setattr(
            catalog_module,
            "scan_directory",
            lambda d, **kw: scans.append(d) or real_scan(d, **kw),
        )
        monkeypatch.setattr(
            Catalog, "save", lambda self: saves.append(1) or real_save(self)
        )
        first = Catalog.open(tmp_path)
        sidecar = os.stat(os.path.join(tmp_path, CATALOG_NAME)).st_mtime_ns
        reopened = [Catalog.open(tmp_path) for _ in range(2)]
        assert (len(scans), len(saves)) == (1, 1)
        assert os.stat(os.path.join(tmp_path, CATALOG_NAME)).st_mtime_ns == sidecar
        assert all(c.entries == first.entries for c in reopened)
        # a removed file is still noticed
        os.remove(first.entries[0].path)
        assert len(Catalog.open(tmp_path)) == 2 and len(scans) == 2

    def test_refresh_dedups_paths(self, tmp_path):
        from repro.storage.catalog import Catalog
        from repro.storage.search import DASFileInfo

        meta = DASMetadata(
            sampling_frequency=FS,
            spatial_resolution=2.0,
            timestamp="170620100545",
            n_channels=4,
        )
        path = os.path.join(tmp_path, "westSac_170620100545.h5")
        write_das_file(path, np.zeros((4, 10), dtype=np.float32), meta)
        catalog = Catalog.build(tmp_path)
        # Simulate a pre-fix index holding the same path twice.
        catalog.entries.append(
            DASFileInfo(
                path=path, timestamp="170620100545", n_channels=4, n_samples=10
            )
        )
        catalog.refresh()
        assert len(catalog) == 1


class TestCli:
    def test_watch_drain_then_status(self, tmp_path, scene, capsys):
        list(
            drip_feed_dataset(
                tmp_path, MINUTES, scene=scene, samples_per_minute=SPM
            )
        )
        code = rt_main(
            [
                "watch",
                str(tmp_path),
                "--drain",
                "--settle",
                "0",
                "--stable-polls",
                "1",
                "--poll",
                "0",
                "--threshold",
                "0.4",
                "--min-fraction",
                "0.25",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "event #" in out
        assert "files ingested" in out

        code = rt_main(["status", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] > 0
        assert payload["quarantined"] == []

    def test_watch_max_ticks_checkpoints(self, tmp_path, scene):
        list(
            drip_feed_dataset(
                tmp_path, MINUTES, scene=scene, samples_per_minute=SPM
            )
        )
        code = rt_main(
            [
                "watch",
                str(tmp_path),
                "--max-ticks",
                "3",
                "--settle",
                "0",
                "--stable-polls",
                "1",
                "--poll",
                "0",
                "--quiet",
            ]
        )
        assert code == 0
        assert os.path.exists(
            os.path.join(tmp_path, ".das_rt_checkpoint.json")
        )
