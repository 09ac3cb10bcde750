"""Service-level tests: seam equivalence against a batch run, fault
injection, kill-and-resume, and the ``python -m repro.rt`` CLI."""

import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.local_similarity import (
    LocalSimilarityConfig,
    LocalSimilarityOp,
    local_similarity_block,
)
from repro.daslib import butter, filtfilt
from repro.daslib.lfilter import compiled_kernel
from repro.rt import (
    CheckpointStore,
    DetectorConfig,
    EventPolicy,
    RTService,
    ServiceConfig,
    map_events,
)
from repro.rt.cli import main as rt_main
from repro.hdf5lite import File
from repro.storage.dasfile import DATASET_NAME, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.synthetic.generator import (
    drip_feed_dataset,
    fig1b_scene,
    synthesize_scene,
)
from repro.utils import cpus as cpu_rule

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
            computed.append(out.size)
            return out

        monkeypatch.setattr(LocalSimilarityOp, "apply", counting_apply)
        service = RTService(
            tmp_path, detector=DETECTOR, policy=POLICY, config=FAST
        )
        _drip_all(tmp_path, scene, service)
        service.flush()
        streamed = service.sink.load()
        # No fringe compute: flushed, the service has emitted every cell
        # of the record's grid and the detector scored hardly any more (a
        # chain handing it the filter's settle halo again reads ~1.5x).
        # Cells, not columns per call: a row split scores an emission's
        # columns once per row block.
        rows = CHANNELS - 2 * SIM.channel_offset
        emitted = rows * len(SIM.centers(MINUTES * SPM))
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


class TestRowPool:
    """The runner splits each emission's detector rows over the process's
    CPUs: the event log is the one a one-CPU service writes, byte for
    byte, and no row thread outlives ``close`` or the record's flush."""

    def _log(self, spool, scene, monkeypatch, n_cpus):
        monkeypatch.setattr(cpu_rule, "available", lambda: n_cpus)
        spool.mkdir()
        service = RTService(spool, detector=DETECTOR, policy=POLICY, config=FAST)
        _drip_all(spool, scene, service)
        service.flush()
        return Path(service.sink.path).read_bytes()

    def test_event_log_does_not_depend_on_the_cpus(
        self, tmp_path, scene, monkeypatch
    ):
        serial = self._log(tmp_path / "one", scene, monkeypatch, 1)
        assert serial.count(b"\n") > 1
        assert self._log(tmp_path / "two", scene, monkeypatch, 2) == serial

    def test_no_row_thread_outlives_close_or_flush(
        self, tmp_path, scene, monkeypatch
    ):
        monkeypatch.setattr(cpu_rule, "available", lambda: 2)
        idle = threading.active_count()
        service = RTService(tmp_path, detector=DETECTOR, policy=POLICY, config=FAST)
        drip = drip_feed_dataset(
            tmp_path, MINUTES, scene=scene, samples_per_minute=SPM
        )
        for _ in range(2):
            next(drip)
            service.drain()
        assert threading.active_count() > idle
        service.close()  # a paused acquisition: checkpointed mid-record
        assert threading.active_count() == idle
        resumed = RTService(tmp_path, detector=DETECTOR, policy=POLICY, config=FAST)
        assert resumed.runner is not None
        for _ in drip:
            resumed.drain()
        assert threading.active_count() > idle
        resumed.flush()
        assert threading.active_count() == idle


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
        raw = Path(bad).read_bytes()
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
        service.backlog.extend(announced)
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


class TestSpoolState:
    """What a drain leaves behind, and the order the backlog hands files
    to processing."""

    def _drip_with_poison(self, spool, scene):
        """Two good minute-files and a zero-length one after them."""
        paths = list(
            drip_feed_dataset(spool, 2, scene=scene, samples_per_minute=SPM)
        )
        poison = os.path.join(spool, "westSac_170620100645.h5")
        open(poison, "wb").close()
        return sorted(os.path.basename(p) for p in paths + [poison])

    def test_a_drain_writes_only_state_a_resume_reads(
        self, tmp_path, scene, monkeypatch
    ):
        saved = []
        real_save = CheckpointStore.save
        monkeypatch.setattr(
            CheckpointStore,
            "save",
            lambda store, payload: saved.append(payload)
            or real_save(store, payload),
        )
        spool = tmp_path / "spool"
        data_files = self._drip_with_poison(spool, scene)
        service = RTService(spool, detector=DETECTOR, policy=POLICY, config=FAST)
        service.drain()
        assert service.metrics.files_quarantined == 1
        assert service.metrics.events_emitted > 0
        assert sorted(os.listdir(spool)) == sorted(
            data_files
            + [
                "events.jsonl",
                ".das_rt_checkpoint.json",
                ".das_rt_checkpoint.json.prev",
                ".das_quarantine.jsonl",
            ]
        )

        class Reads(dict):
            """The payload, recording every key read from it."""

            def __init__(self, payload):
                super().__init__(payload)
                self.read = set()

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

        payload = Reads(saved[-1])
        assert payload["runner"] is not None  # a live record is resumed
        payload.read.clear()
        RTService(
            spool,
            detector=DETECTOR,
            policy=POLICY,
            config=FAST,
            state_dir=tmp_path / "elsewhere",
        )._resume(payload)
        assert payload.read == set(payload)

    def test_a_drain_with_a_state_dir_leaves_only_data_in_the_spool(
        self, tmp_path, scene
    ):
        spool, state = tmp_path / "spool", tmp_path / "state"
        data_files = self._drip_with_poison(spool, scene)
        state.mkdir()
        service = RTService(
            spool, detector=DETECTOR, policy=POLICY, config=FAST, state_dir=state
        )
        service.drain()
        assert service.metrics.files_quarantined == 1
        assert sorted(os.listdir(spool)) == data_files

    def test_backlog_order_with_a_retry(self, tmp_path, monkeypatch):
        """One file per tick; a torn first file rejoins the back of the
        backlog, is counted as waiting, and is read again once the others
        are done."""
        tiny = fig1b_scene(
            n_channels=8, fs=FS, minutes=3, samples_per_minute=200, seed=7
        )
        paths = list(
            drip_feed_dataset(tmp_path, 3, scene=tiny, samples_per_minute=200)
        )
        torn = paths[0]
        whole = Path(torn).read_bytes()
        with open(torn, "wb") as handle:
            handle.write(whole[:60])
        seen = []
        real_process = RTService._process
        monkeypatch.setattr(
            RTService,
            "_process",
            lambda service, path: seen.append(os.path.basename(path))
            or real_process(service, path),
        )
        service = RTService(
            tmp_path,
            detector=DETECTOR,
            policy=POLICY,
            config=ServiceConfig(
                poll_interval=0.0,
                settle_seconds=0.0,
                stable_polls=1,
                max_retries=2,
                queue_capacity=1,
            ),
        )
        backlog = []
        for tick in range(5):
            service.tick()
            backlog.append(service.metrics.backlog)
            if tick == 0:
                with open(torn, "wb") as handle:
                    handle.write(whole)
        names = [os.path.basename(p) for p in paths]
        assert seen == names + names[:1]
        # after the first tick B, C and the retried A are waiting
        assert backlog == [3, 2, 1, 0, 0]
        assert service.metrics.files_ingested == 3
        assert service.metrics.files_requeued == 1


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


def test_a_file_that_is_not_2d_leaves_the_record_to_the_next_file(tmp_path):
    """A malformed file is quarantined before it can set the record's
    geometry, so the good file after it is ingested, not refused."""
    meta = DASMetadata(
        sampling_frequency=FS, spatial_resolution=2.0,
        timestamp="170620100545", n_channels=8,
    )
    with File(os.path.join(tmp_path, "westSac_170620100545.h5"), "w") as f:
        f.attrs.update_many(meta.to_attrs())
        f.create_dataset(DATASET_NAME, data=np.zeros(400, dtype=np.float32))
    good = DASMetadata(
        sampling_frequency=FS, spatial_resolution=2.0,
        timestamp="170620100553", n_channels=8,
    )
    write_das_file(
        os.path.join(tmp_path, "westSac_170620100553.h5"),
        np.ones((8, 400), dtype=np.float32),
        good,
    )
    service = RTService(
        tmp_path,
        detector=DetectorConfig(band=None, similarity=SIM),
        policy=POLICY,
        config=FAST,
    )
    service.drain()
    assert "2-D" in service.quarantine.reasons["westSac_170620100545.h5"]
    assert service.metrics.files_ingested == 1
    assert service.runner.n_channels == 8


class TestCheckpointCadence:
    """``checkpoint_every`` counts processed files, also when one tick
    drains several."""

    @pytest.mark.parametrize("every, expected", [(1, [1, 2, 3, 4, 5]), (2, [2, 4])])
    def test_one_drain_checkpoints_after_every_nth_file(
        self, tmp_path, monkeypatch, every, expected
    ):
        stamp = "170620100545"
        rng = np.random.default_rng(3)
        for _ in range(5):
            meta = DASMetadata(
                sampling_frequency=FS,
                spatial_resolution=2.0,
                timestamp=stamp,
                n_channels=8,
            )
            write_das_file(
                os.path.join(tmp_path, f"westSac_{stamp}.h5"),
                rng.standard_normal((8, 400)).astype(np.float32),
                meta,
            )
            stamp = timestamp_add_seconds(stamp, 400 / FS)
        saves = []
        real_save = CheckpointStore.save
        monkeypatch.setattr(
            CheckpointStore,
            "save",
            lambda store, payload: saves.append(len(payload["files_done"]))
            or real_save(store, payload),
        )
        service = RTService(
            tmp_path,
            detector=DetectorConfig(band=None, similarity=SIM),
            policy=POLICY,
            config=ServiceConfig(
                poll_interval=0.0,
                settle_seconds=0.0,
                stable_polls=1,
                checkpoint_every=every,
            ),
        )
        assert service.drain() == 5
        assert saves == expected


@pytest.mark.parametrize("band, resolved", [((0.5, 12.0), True), (None, False)])
def test_a_bandpass_service_imports_its_filter_kernel_when_built(
    tmp_path, band, resolved
):
    """The band-pass chain is built from the first file, but its compiled
    kernel is imported with the service, so that file's latency does not
    carry the import; a service that never filters never imports it."""
    compiled_kernel.cache_clear()
    try:
        RTService(tmp_path, detector=DetectorConfig(band=band, similarity=SIM))
        assert compiled_kernel.cache_info().currsize == int(resolved)
    finally:
        compiled_kernel.cache_clear()
