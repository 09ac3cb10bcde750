"""Unit tests for the rt building blocks: incremental execution, ingest,
event assembly, checkpoints, metrics."""

import base64
import importlib
import json
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.local_similarity import (
    LocalSimilarityConfig,
    LocalSimilarityOp,
    local_similarity_block,
)
from repro.core.operators import FiltFiltOp
from repro.core.pipeline import IncrementalRunner, _levels, _needed, _run_chain
from repro.core.stalta import (
    StaLtaOp,
    classic_sta_lta,
)
from repro.daslib import butter, filtfilt
from repro.errors import ConfigError, StorageError
from repro.rt.checkpoint import CheckpointStore, read_sample_range
from repro.rt.events import (
    EventAssembler,
    EventPolicy,
    EventSink,
    SeamEvent,
    map_events,
)
from repro.rt.ingest import Quarantine, SpoolWatcher
from repro.rt.metrics import LatencyStats, RTMetrics
from repro.rt.scheduler import DetectorConfig
from repro.rt.service import ServiceConfig
from repro.storage.dasfile import write_das_file
from repro.storage.metadata import DASMetadata
from repro.utils import cpus as cpu_rule
from tests.conftest import run_chain
from tests.reference.rt import LoopAssembler


@pytest.fixture
def record():
    rng = np.random.default_rng(11)
    return rng.standard_normal((9, 3000))


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


CARRIED_BA = butter(4, (2.0, 40.0), "bandpass", fs=200.0)
CARRIED_SIMILARITY = LocalSimilarityConfig(
    half_window=25, channel_offset=1, half_lag=5, stride=10
)
#: What the raw-halo runner (checkpoint format 1) exported for the
#: ``record`` fixture through ``_carried_runner`` after pushes of 1 300
#: and 1 400 samples; its tail holds a settle length more than format 2's.
V1_PAYLOAD = {
    "version": 1,
    "operators": ["filtfilt", "local_similarity"],
    "n_channels": 9,
    "fs": 200.0,
    "seen": 2700,
    "emitted": 162,
    "buf_start": 597,
    "tail_samples": 2103,
    "tail_sha256": (
        "ae7204995e5a53fcf5d682ef5cf88d2327232a53facd22ce172d91b0a746977a"
    ),
}


def _carried_runner(record):
    return IncrementalRunner(
        [FiltFiltOp(*CARRIED_BA), LocalSimilarityOp(CARRIED_SIMILARITY)],
        record.shape[0],
        fs=200.0,
    )


def _joined(pieces):
    return np.concatenate([block for _, block in pieces], axis=1)


# ---------------------------------------------------------------------------
# IncrementalRunner: the seam-state engine under the scheduler
# ---------------------------------------------------------------------------
class TestIncrementalRunner:
    def test_arbitrary_splits_match_batch(self, record):
        fs = 200.0
        b, a = butter(4, (2.0, 40.0), "bandpass", fs=fs)
        cfg = LocalSimilarityConfig(
            half_window=25, channel_offset=2, half_lag=5, stride=10
        )
        expected, _ = local_similarity_block(filtfilt(b, a, record), cfg)

        runner = IncrementalRunner(
            [FiltFiltOp(b, a), LocalSimilarityOp(cfg)], record.shape[0], fs=fs
        )
        pieces = []
        cuts = [0, 171, 172, 900, 1750, 2501, 3000]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            pieces.extend(runner.push(record[:, lo:hi]))
        pieces.extend(runner.flush())

        intervals = [interval for interval, _ in pieces]
        assert intervals[0][0] == 0
        assert all(
            prev[1] == cur[0] for prev, cur in zip(intervals, intervals[1:])
        ), "emitted intervals must tile the output axis"
        streamed = np.concatenate([block for _, block in pieces], axis=1)
        assert streamed.shape == expected.shape
        assert np.abs(streamed - expected).max() == pytest.approx(0.0, abs=1e-8)

    def test_stalta_chain_matches_batch(self, record):
        runner = IncrementalRunner([StaLtaOp(20, 200)], record.shape[0])
        pieces = runner.push(record[:, :500])
        pieces += runner.push(record[:, 500:2200])
        pieces += runner.push(record[:, 2200:])
        pieces += runner.flush()
        streamed = np.concatenate([block for _, block in pieces], axis=1)
        expected = classic_sta_lta(record, 20, 200)
        assert np.abs(streamed - expected).max() == pytest.approx(0.0, abs=1e-9)

    def test_export_import_resumes_identically(self, record):
        """Resume re-runs the carried forward pass over the re-read tail
        from the state recorded at ``buf_start``: bit-identical to the
        same pushes made without stopping — before the filter's first
        ``padlen`` samples, inside its first settle length, mid-record
        and one sample short of the end."""
        for cut in (10, 150, 1700, 2999):
            straight = _carried_runner(record)
            expected = straight.push(record[:, :cut])
            expected += straight.push(record[:, cut:]) + straight.flush()

            first = _carried_runner(record)
            out = first.push(record[:, :cut])
            state = json.loads(json.dumps(first.export_state()))  # wire format
            tail = record[:, state["buf_start"] : state["seen"]]
            second = _carried_runner(record)
            second.import_state(state, tail)
            assert second.export_state() == state
            out += second.push(record[:, cut:]) + second.flush()
            assert [iv for iv, _ in out] == [iv for iv, _ in expected]
            np.testing.assert_array_equal(_joined(out), _joined(expected))

    def test_checkpoint_carries_the_forward_state_not_the_raw_halo(self, record):
        runner = _carried_runner(record)
        runner.push(record[:, :1300])
        runner.push(record[:, 1300:2700])
        state = runner.export_state()
        settle = FiltFiltOp(*CARRIED_BA).halo[0]
        assert state["version"] == 2 and state["emitted"] == 162
        # format 1 carried 2 103 raw samples: a settle length, the
        # detector's lookback, and the settle length re-filtering it took
        assert state["tail_samples"] == V1_PAYLOAD["tail_samples"] - settle
        # the order-4 bandpass's 8 IIR states per channel, as float64 bytes
        packed = base64.b64decode(state["forward_state"])
        assert len(packed) == 8 * record.shape[0] * 8

    def test_version_1_payload_is_refused(self, record):
        """Only format 2 imports: a format-1 payload (raw halo, no forward
        state) is a ConfigError naming its version, not a resume."""
        resumed = _carried_runner(record)
        tail = record[:, V1_PAYLOAD["buf_start"] : V1_PAYLOAD["seen"]]
        with pytest.raises(ConfigError, match="version 1 unsupported"):
            resumed.import_state(dict(V1_PAYLOAD), tail)

    def test_import_rejects_tampered_tail(self, record):
        runner = IncrementalRunner([StaLtaOp(5, 50)], record.shape[0])
        runner.push(record[:, :1000])
        state = runner.export_state()
        tail = record[:, state["buf_start"] : state["seen"]].copy()
        tail[0, 0] += 1.0
        fresh = IncrementalRunner([StaLtaOp(5, 50)], record.shape[0])
        with pytest.raises(ConfigError, match="digest"):
            fresh.import_state(state, tail)

    def test_import_rejects_tampered_tail_behind_a_carried_filter(self, record):
        runner = _carried_runner(record)
        runner.push(record[:, :2200])
        state = runner.export_state()
        tail = record[:, state["buf_start"] : state["seen"]].copy()
        tail[3, -1] += 1e-9
        with pytest.raises(ConfigError, match="digest"):
            _carried_runner(record).import_state(state, tail)

    @pytest.mark.parametrize(
        "change",
        [
            {"emitted": 1500},
            {"emitted": 10**9},
            {"emitted": 999},
            {"emitted": -1},
            {"buf_start": 900},
            {"buf_start": 1000},
            {"seen": 1200},
            {"seen": 900},
        ],
    )
    def test_import_refuses_watermarks_export_could_not_write(
        self, record, change
    ):
        """``emitted`` 1 500 after 1 000 samples would resume at 1 500 and
        never produce columns 1 000-1 500; 10**9 would never emit again."""
        runner = IncrementalRunner([StaLtaOp(5, 50)], record.shape[0])
        runner.push(record[:, :1000])
        state = runner.export_state()
        assert (state["emitted"], state["buf_start"]) == (1000, 951)
        tail = record[:, state["buf_start"] : state["seen"]]
        fresh = IncrementalRunner([StaLtaOp(5, 50)], record.shape[0])
        with pytest.raises(ConfigError):
            fresh.import_state({**state, **change}, tail)

    def test_import_refuses_a_carried_state_export_could_not_write(
        self, record
    ):
        runner = _carried_runner(record)
        runner.push(record[:, :2200])
        state = runner.export_state()
        late = state["buf_start"] + 400
        with pytest.raises(ConfigError, match="needs"):
            _carried_runner(record).import_state(
                {**state, "buf_start": late}, record[:, late : state["seen"]]
            )
        tail = record[:, state["buf_start"] : state["seen"]]
        short = state["forward_state"][:-8]
        for forward_state in (None, "not base64!", [[0.0]], short):
            with pytest.raises(ConfigError, match="forward state"):
                _carried_runner(record).import_state(
                    {**state, "forward_state": forward_state}, tail
                )

    def test_records_around_padlen_end_as_batch_filtfilt_ends_them(self, record):
        ops = [FiltFiltOp(*CARRIED_BA), StaLtaOp(2, 5)]
        padlen = ops[0].padlen
        for n in (padlen, padlen + 1):
            runner = IncrementalRunner(ops, record.shape[0], fs=200.0)
            runner.push(record[:, : n // 2])
            runner.push(record[:, n // 2 : n])
            if n <= padlen:
                with pytest.raises(ValueError):
                    runner.flush()
                continue
            ((j0, j1), block), = runner.flush()
            whole = run_chain(ops, record[:, :n], fs=200.0).output
            assert (j0, j1) == (0, n)
            np.testing.assert_array_equal(block, whole)

    def test_a_flushed_state_round_trips(self, record):
        runner = IncrementalRunner([StaLtaOp(5, 50)], record.shape[0])
        runner.push(record[:, :1000])
        runner.flush()
        state = runner.export_state()
        fresh = IncrementalRunner([StaLtaOp(5, 50)], record.shape[0])
        fresh.import_state(state, record[:, state["buf_start"] : state["seen"]])
        assert fresh.export_state() == state


GEN_FS = 100.0
GEN_SAMPLES = 1800
#: Settle lengths 552 and 236 samples at 100 Hz, order 4 (padlen 27).
GEN_BANDS = ((2.0, 20.0), (5.0, 30.0))
GEN_PADLEN = 27
GEN_PIECE = st.one_of(
    st.just(1),
    st.integers(2, GEN_PADLEN),
    st.integers(GEN_PADLEN + 1, 400),
    st.integers(600, GEN_SAMPLES),
)


def _gen_chain(detector, band):
    return DetectorConfig(
        detector=detector,
        band=band,
        similarity=LocalSimilarityConfig(
            half_window=10, channel_offset=1, half_lag=3, stride=10
        ),
        nsta=10,
        nlta=60,
    ).operators(GEN_FS)


def _gen_record():
    return np.random.default_rng(25).standard_normal((5, GEN_SAMPLES))


class _CountingLfilter:
    """Wraps ``repro.daslib.filtfilt``'s ``lfilter`` and records the
    samples each call filters, in call order."""

    def __init__(self):
        self.module = importlib.import_module("repro.daslib.filtfilt")
        self.real = self.module.lfilter
        self.calls: list[int] = []

    def __call__(self, b, a, x, *args, **kwargs):
        self.calls.append(np.shape(x)[-1])
        return self.real(b, a, x, *args, **kwargs)

    def take(self) -> list[int]:
        calls, self.calls = self.calls, []
        return calls


class TestCarriedForwardPass:
    """Generated cut lists through the detector chains the service runs.

    Every cut pattern — 1-sample pieces, a first piece shorter than the
    filter's ``padlen``, pieces longer than its settle length, the record
    in one piece — must tile the output axis, stay within the settle
    tolerance of whole-record ``filtfilt`` → detector, and end in a
    ``flush`` emission that is *exactly* the detector on whole-record
    ``filtfilt``.  The filter does each sample's forward work once: per
    push, the piece (plus ``padlen`` where the record opens); per
    emission, the backward pass over its need plus one settle length.
    """

    @pytest.mark.parametrize("band", GEN_BANDS)
    @pytest.mark.parametrize("detector", ["local_similarity", "sta_lta"])
    @settings(max_examples=6, deadline=None)
    @given(pieces=st.lists(GEN_PIECE, max_size=10))
    @example(pieces=[])  # the record in one piece
    @example(pieces=[400] + [1] * 40)  # 1-sample pieces around the seam
    @example(pieces=[5, 1, 1, 700])  # first pieces shorter than padlen
    @example(pieces=[700, 700])  # pieces longer than the settle length
    def test_cut_lists_match_the_whole_record(self, detector, band, pieces):
        ops = _gen_chain(detector, band)
        head, tail = ops[0], ops[1:]
        settle = head.halo[1]
        assert head.padlen == GEN_PADLEN
        record = _gen_record()
        filtered = filtfilt(head.b, head.a, record)
        whole = run_chain(ops, record, fs=GEN_FS).output

        cuts = sorted({min(c, GEN_SAMPLES) for c in np.cumsum([0] + pieces)})
        cuts = [c for c in cuts if c < GEN_SAMPLES] + [GEN_SAMPLES]
        runner = IncrementalRunner(ops, record.shape[0], fs=GEN_FS)
        counter = _CountingLfilter()
        emitted = []
        opened = False
        with mock.patch.object(counter.module, "lfilter", counter):
            for lo, hi in zip(cuts, cuts[1:]):
                out = runner.push(record[:, lo:hi])
                calls = counter.take()
                backward = []
                for (j0, j1), _block in out:
                    a, b = _needed(ops, (j0, j1), None)[1]
                    backward.append(b + settle - a)
                forward = calls[: len(calls) - len(backward)]
                assert calls[len(forward) :] == backward
                if opened:
                    assert sum(forward) == hi - lo
                elif hi > GEN_PADLEN:
                    assert sum(forward) == hi + GEN_PADLEN
                    opened = True
                else:
                    assert forward == []
                emitted += out
            ((j0, j1), last), = runner.flush()
            totals, rates, _ = _levels(ops, record.shape[0], GEN_SAMPLES, GEN_FS)
            a, b = _needed(ops, (j0, j1), totals)[1]
            assert counter.take() == [GEN_PADLEN, GEN_SAMPLES + GEN_PADLEN - a]

        intervals = [iv for iv, _ in emitted] + [(j0, j1)]
        assert intervals[0][0] == 0 and j1 == whole.shape[1]
        assert all(p[1] == c[0] for p, c in zip(intervals, intervals[1:]))
        streamed = np.concatenate([blk for _, blk in emitted] + [last], axis=1)
        np.testing.assert_allclose(streamed, whole, rtol=0, atol=1e-8)

        # The flush emission: the detector on whole-record filtfilt, exactly.
        needs = _needed(ops, (j0, j1), totals)
        want, _ = _run_chain(
            tail, filtered[:, a:b], needs[1:], totals[1:], rates[1:],
            [None] * len(tail), 0, None,
        )
        np.testing.assert_array_equal(last, want)
        if detector == "local_similarity":
            # position-independent windows: also the batch run's columns
            np.testing.assert_array_equal(last, whole[:, j0:j1])


class TestRowPool:
    """Each emission splits the detector's rows over one pool per runner,
    sized by :func:`repro.utils.cpus.available`: the pieces are the ones
    a serial runner emits, bit for bit, and no thread outlives ``flush``."""

    PIECES = (700, 450, 1, 300, 349)  # cuts 700 .. 1800, one 1-sample piece

    def _run(self, monkeypatch, detector, n_cpus, resume_at=None):
        """Every ``(interval, block)`` a runner emits over the generated
        record; ``resume_at`` exports the state before that piece and
        imports it into a fresh runner, as a checkpoint resume does."""
        monkeypatch.setattr(cpu_rule, "available", lambda: n_cpus)
        ops = _gen_chain(detector, GEN_BANDS[0])
        record = _gen_record()
        runner = IncrementalRunner(ops, record.shape[0], fs=GEN_FS)
        pieces, lo = [], 0
        for k, n in enumerate(self.PIECES):
            if k == resume_at:
                state = runner.export_state()
                runner.close()
                runner = IncrementalRunner(ops, record.shape[0], fs=GEN_FS)
                runner.import_state(
                    state, record[:, state["buf_start"] : state["seen"]]
                )
            pieces += runner.push(record[:, lo : lo + n])
            lo += n
            assert (runner._pool is not None) == (n_cpus > 1 and bool(pieces))
        return pieces + runner.flush()

    @pytest.mark.parametrize("detector", ["local_similarity", "sta_lta"])
    def test_pieces_do_not_depend_on_the_cpus_or_a_resume(
        self, monkeypatch, detector
    ):
        serial = self._run(monkeypatch, detector, 1)
        assert len(serial) >= 3
        for pooled in (
            self._run(monkeypatch, detector, 2),
            self._run(monkeypatch, detector, 2, resume_at=3),
        ):
            assert [iv for iv, _ in pooled] == [iv for iv, _ in serial]
            for (_, got), (_, want) in zip(pooled, serial):
                np.testing.assert_array_equal(got, want)

    def test_no_thread_outlives_flush_or_close(self, monkeypatch):
        monkeypatch.setattr(cpu_rule, "available", lambda: 2)
        record = _gen_record()
        idle = threading.active_count()
        runner = IncrementalRunner(
            _gen_chain("sta_lta", GEN_BANDS[0]), record.shape[0], fs=GEN_FS
        )
        assert runner.push(record[:, :1200])
        assert threading.active_count() > idle
        runner.close()
        assert threading.active_count() == idle
        assert runner.push(record[:, 1200:])  # a closed runner starts anew
        assert threading.active_count() > idle
        runner.flush()
        assert threading.active_count() == idle



# ---------------------------------------------------------------------------
# Ingest: watcher heuristics, queue backpressure, quarantine
# ---------------------------------------------------------------------------
class TestSpoolWatcher:
    def _touch(self, directory, name, size=8, clock=None):
        path = os.path.join(directory, name)
        with open(path, "wb") as handle:
            handle.write(b"x" * size)
        if clock is not None:  # pin mtime into the fake timeline
            os.utime(path, (clock.now, clock.now))
        return path

    def test_file_admitted_only_after_size_settles(self, tmp_path):
        clock = FakeClock()
        watcher = SpoolWatcher(
            tmp_path, settle_seconds=0.0, stable_polls=2, clock=clock
        )
        path = self._touch(
            tmp_path, "westSac_170620100545.h5", size=10, clock=clock
        )
        assert watcher.scan() == []  # first sighting: not yet stable
        self._touch(
            tmp_path, "westSac_170620100545.h5", size=20, clock=clock
        )  # grew
        assert watcher.scan() == []  # size changed: counter resets
        assert watcher.scan() == [path]  # two stable polls
        assert watcher.scan() == []  # announced exactly once

    def test_mtime_settle_delays_admission(self, tmp_path):
        clock = FakeClock()
        watcher = SpoolWatcher(
            tmp_path, settle_seconds=5.0, stable_polls=1, clock=clock
        )
        path = self._touch(
            tmp_path, "westSac_170620100545.h5", clock=clock
        )
        assert watcher.scan() == []  # too fresh
        clock.advance(6.0)
        assert watcher.scan() == [path]

    def test_hidden_and_foreign_files_ignored(self, tmp_path):
        clock = FakeClock()
        watcher = SpoolWatcher(
            tmp_path, settle_seconds=0.0, stable_polls=1, clock=clock
        )
        self._touch(tmp_path, ".westSac_170620100545.h5.part", clock=clock)
        self._touch(tmp_path, "notes.txt", clock=clock)
        assert watcher.scan() == []

    def test_mark_known_suppresses_resume_reannounce(self, tmp_path):
        clock = FakeClock()
        path = self._touch(
            tmp_path, "westSac_170620100545.h5", clock=clock
        )
        watcher = SpoolWatcher(
            tmp_path, settle_seconds=0.0, stable_polls=1, clock=clock
        )
        watcher.mark_known([path])
        assert watcher.scan() == []


class TestServiceConfig:
    def test_validates_queue_capacity(self):
        with pytest.raises(ConfigError, match="queue capacity"):
            ServiceConfig(queue_capacity=0)


class TestQuarantine:
    def test_persists_across_instances(self, tmp_path):
        quarantine = Quarantine(tmp_path)
        bad = os.path.join(tmp_path, "westSac_170620100545.h5")
        quarantine.add(bad, "short read at offset 0", attempts=3)
        assert bad in quarantine
        reloaded = Quarantine(tmp_path)
        assert bad in reloaded
        assert reloaded.reasons["westSac_170620100545.h5"].startswith(
            "short read"
        )
        assert len(reloaded) == 1


class TestQuarantineTaxonomy:
    def test_pre_taxonomy_entries_still_load(self, tmp_path):
        # Regression: quarantine files written before the structured
        # ``error`` field existed must load unchanged.
        from repro.rt.ingest import QUARANTINE_NAME

        legacy = os.path.join(tmp_path, QUARANTINE_NAME)
        with open(legacy, "w", encoding="utf-8") as handle:
            handle.write(
                '{"name": "westSac_170620100545.h5", '
                '"reason": "short read", "attempts": 3}\n'
            )
        quarantine = Quarantine(tmp_path)
        assert len(quarantine) == 1
        assert quarantine.reasons["westSac_170620100545.h5"] == "short read"
        assert quarantine.errors["westSac_170620100545.h5"] is None

    def test_error_taxonomy_roundtrip(self, tmp_path):
        from repro.errors import CorruptDataError

        quarantine = Quarantine(tmp_path)
        quarantine.add(
            "westSac_170620100645.h5",
            "checksum mismatch",
            attempts=2,
            error=CorruptDataError("crc32 mismatch at offset 128"),
        )
        reloaded = Quarantine(tmp_path)
        entry = reloaded.errors["westSac_170620100645.h5"]
        assert entry["type"] == "CorruptDataError"
        assert entry["taxonomy"][0] == "CorruptDataError"
        assert "StorageError" in entry["taxonomy"]
        assert "ReproError" in entry["taxonomy"]
        assert "crc32" in entry["message"]

    def test_non_repro_error_has_empty_taxonomy(self, tmp_path):
        quarantine = Quarantine(tmp_path)
        quarantine.add("x.h5", "io", attempts=1, error=OSError("disk"))
        entry = Quarantine(tmp_path).errors["x.h5"]
        assert entry["type"] == "OSError"
        assert entry["taxonomy"] == []


# ---------------------------------------------------------------------------
# Events: streamed assembly == batch assembly, sink dedup
# ---------------------------------------------------------------------------
class TestEventAssembly:
    def _random_map(self, seed, n_channels=12, n_columns=200):
        rng = np.random.default_rng(seed)
        block = rng.uniform(-0.2, 0.45, size=(n_channels, n_columns))
        # paint a few hot stripes so runs exist
        for lo, hi in ((20, 35), (90, 91), (140, 170)):
            block[:, lo:hi] += 0.5
        return block

    def test_streamed_equals_batch_any_split(self):
        policy = EventPolicy(threshold=0.4, min_fraction=0.5)
        fs = 100.0
        block = self._random_map(3)
        centers = np.arange(block.shape[1]) * 7 + 30
        expected = map_events(block, centers, fs, policy, n_channels=12)
        for cuts in ([0, 60, 61, 150, 200], [0, 25, 95, 160, 200]):
            assembler = EventAssembler(policy, fs, 12)
            got = []
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                got.extend(
                    assembler.feed(lo, centers[lo:hi], block[:, lo:hi])
                )
            got.extend(assembler.flush())
            assert [e.to_json() for e in got] == [
                e.to_json() for e in expected
            ]

    def test_open_run_survives_state_roundtrip(self):
        policy = EventPolicy(threshold=0.4, min_fraction=0.5)
        block = self._random_map(5)
        centers = np.arange(block.shape[1]) * 7 + 30
        expected = map_events(block, centers, 100.0, policy, n_channels=12)

        first = EventAssembler(policy, 100.0, 12)
        got = first.feed(0, centers[:150], block[:, :150])  # run open at 140..
        payload = json.loads(json.dumps(first.export_state()))
        second = EventAssembler(policy, 100.0, 12)
        second.import_state(payload)
        got += second.feed(150, centers[150:], block[:, 150:])
        got += second.flush()
        assert [e.to_json() for e in got] == [e.to_json() for e in expected]

    def test_min_columns_drops_glitches(self):
        policy = EventPolicy(threshold=0.4, min_fraction=0.5, min_columns=2)
        block = self._random_map(7)
        centers = np.arange(block.shape[1]).astype(float)
        events = map_events(block, centers, 100.0, policy, n_channels=12)
        assert all(e.j_end - e.j_start + 1 >= 2 for e in events)
        assert not any(e.j_start == 90 for e in events)  # the 1-column stripe

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            EventPolicy(min_fraction=0.0)
        with pytest.raises(ConfigError):
            EventPolicy(min_columns=0)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_channels=st.integers(1, 9),
        n_columns=st.integers(0, 60),
        threshold=st.floats(-0.5, 1.2),
        min_fraction=st.sampled_from([0.01, 0.25, 0.5, 1.0]),
        min_columns=st.integers(1, 3),
        channel_lo=st.integers(0, 3),
        cuts=st.lists(st.integers(0, 60), max_size=6),
        float_centers=st.booleans(),
    )
    def test_feed_equals_the_column_loop_bit_for_bit(
        self, seed, n_channels, n_columns, threshold, min_fraction,
        min_columns, channel_lo, cuts, float_centers,
    ):
        """Random maps, thresholds and splits of the column axis (empty
        pieces and runs open across feeds included): the events — their
        float fields too — and the carried run equal the per-column loop's
        at every step."""
        rng = np.random.default_rng(seed)
        block = rng.uniform(-1.0, 1.5, size=(n_channels, n_columns))
        # long hot stretches, so runs stay open across pieces
        block[:, rng.random(n_columns) < 0.6] += 1.0
        block[rng.random(block.shape) < 0.02] = np.nan
        centers = np.arange(n_columns) * 7 + 30
        if float_centers:
            centers = centers + rng.random(n_columns)
        policy = EventPolicy(
            threshold=threshold, min_fraction=min_fraction, min_columns=min_columns
        )
        edges = sorted({0, n_columns, *(c for c in cuts if c <= n_columns)})
        edges = edges[:1] + edges  # an empty first piece
        args = (policy, 100.0, n_channels + 2 * channel_lo, channel_lo)
        fast, slow = EventAssembler(*args), LoopAssembler(*args)
        for lo, hi in zip(edges[:-1], edges[1:]):
            piece = (lo, centers[lo:hi], block[:, lo:hi])
            assert fast.feed(*piece) == slow.feed(*piece)
            assert fast.export_state() == slow.export_state()
        assert fast.flush() == slow.flush()


class TestEventSink:
    def test_dedup_by_record_and_span(self, tmp_path):
        path = tmp_path / "events.jsonl"
        policy = EventPolicy(threshold=0.4, min_fraction=0.5)
        block = np.full((4, 6), 0.9)
        events = map_events(block, np.arange(6.0), 10.0, policy, n_channels=4)
        sink = EventSink(path)
        assert len(sink.emit(events, record="170620100545")) == 1
        assert sink.emit(events, record="170620100545") == []  # duplicate
        assert len(sink.emit(events, record="170620100645")) == 1  # new record
        reloaded = EventSink(path)  # resume: keys reloaded from disk
        assert reloaded.count == 2
        assert reloaded.emit(events, record="170620100545") == []
        assert all(
            isinstance(e, SeamEvent) for e in reloaded.load()
        )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
class TestCheckpointStore:
    def test_roundtrip_and_clear(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt.json")
        assert store.load() is None
        store.save({"files_done": [["a.h5", 100]]})
        assert store.load()["files_done"] == [["a.h5", 100]]
        store.clear()
        assert store.load() is None

    def test_rejects_torn_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"version": 1, "files')
        with pytest.raises(StorageError):
            CheckpointStore(path).load()

    def test_read_sample_range_spans_files(self, tmp_path):
        fs, n = 10.0, 40
        data = np.arange(4 * 3 * n, dtype=np.float32).reshape(4, 3 * n)
        files = []
        stamp = "170620100545"
        for k in range(3):
            meta = DASMetadata(
                sampling_frequency=fs,
                spatial_resolution=2.0,
                timestamp=stamp,
                n_channels=4,
            )
            path = os.path.join(tmp_path, f"westSac_{stamp}.h5")
            write_das_file(path, data[:, k * n : (k + 1) * n], meta)
            files.append((path, n))
            stamp = str(int(stamp) + 4)
        got = read_sample_range(files, 35, 85)
        assert np.array_equal(got, data[:, 35:85])
        with pytest.raises(StorageError):
            read_sample_range(files, 100, 300)  # beyond what files cover


# ---------------------------------------------------------------------------
# Scheduler + metrics odds and ends
# ---------------------------------------------------------------------------
class TestSchedulerConfig:
    def test_rejects_unknown_detector(self):
        with pytest.raises(ConfigError):
            DetectorConfig(detector="template_matching")

    def test_centers_map_columns_to_samples(self):
        cfg = DetectorConfig(
            similarity=LocalSimilarityConfig(
                half_window=25, channel_offset=1, half_lag=5, stride=10
            )
        )
        assert list(cfg.centers(0, 3)) == [30, 40, 50]
        assert DetectorConfig(detector="sta_lta").channel_lo == 0
        assert cfg.channel_lo == 1


class TestMetrics:
    def test_latency_percentiles(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.record(v / 100.0)
        assert stats.percentile(50) == pytest.approx(0.505, abs=1e-9)
        assert stats.percentile(95) == pytest.approx(0.9505, abs=1e-9)
        snap = stats.snapshot()
        assert snap["count"] == 100 and snap["max_s"] == pytest.approx(1.0)

    def test_snapshot_consistent_under_concurrent_appends(self):
        # snapshot() must copy the reservoir once and derive p50/p95/max
        # from that one frozen copy — the service thread appends while
        # the CLI snapshots, and the stats must stay internally ordered.
        import threading

        stats = LatencyStats(cap=256)
        stop = threading.Event()

        def writer():
            v = 0
            while not stop.is_set():
                v += 1
                stats.record((v % 97) / 97.0)

        t = threading.Thread(target=writer)
        t.start()
        try:
            for _ in range(300):
                snap = stats.snapshot()
                if snap["count"] == 0:
                    continue
                assert snap["p50_s"] <= snap["p95_s"] <= snap["max_s"]
        finally:
            stop.set()
            t.join()

    def test_snapshot_matches_percentile_on_static_reservoir(self):
        stats = LatencyStats()
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            stats.record(v)
        snap = stats.snapshot()
        assert snap["p50_s"] == stats.percentile(50)
        assert snap["p95_s"] == stats.percentile(95)
        assert snap["max_s"] == 5.0

    def test_snapshot_is_json_safe(self):
        metrics = RTMetrics()
        metrics.stage("read").record(0.01)
        metrics.ingest_lag.record(0.5)
        metrics.files_ingested = 3
        json.dumps(metrics.snapshot())
        assert "files/sec" in metrics.report() or "files" in metrics.report()
