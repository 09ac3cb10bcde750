"""Corrupted/torn checkpoint recovery.

Every corruption shape — truncation at several offsets, single-bit
flips at several positions, a torn promote (primary missing, ``.prev``
present) — must be *detected* (typed ``CheckpointCorruptError``) and
fall back to the previous verifiable generation, or raise when none
verifies.  A silent resume from a wrong checkpoint is the one failure
mode none of these tests may permit."""

import json
import os
import zlib

import pytest

from repro.core.local_similarity import LocalSimilarityConfig
from repro.errors import CheckpointCorruptError, ConfigError
from repro.faults.chaos import flip_text_byte, tear_file
from repro.rt import (
    CheckpointStore,
    DetectorConfig,
    EventPolicy,
    RTService,
    ServiceConfig,
)
from repro.rt.checkpoint import PREVIOUS_SUFFIX
from repro.rt.events import read_event_log
from repro.synthetic.generator import drip_feed_dataset, fig1b_scene

PAYLOAD_ONE = {"files_done": [["a.h5", 600]], "sample_count": 600}
PAYLOAD_TWO = {"files_done": [["a.h5", 600], ["b.h5", 600]],
               "sample_count": 1200}


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(str(tmp_path / "ckpt.json"))


def _saved_twice(store):
    store.save(PAYLOAD_ONE)
    store.save(PAYLOAD_TWO)
    return store


class TestGenerations:
    def test_save_demotes_previous_generation(self, store):
        _saved_twice(store)
        assert os.path.exists(store.path)
        assert os.path.exists(store.previous_path)
        assert store.load()["sample_count"] == 1200
        assert store.last_error is None

    def test_clear_removes_both_generations(self, store):
        _saved_twice(store)
        store.clear()
        assert not os.path.exists(store.path)
        assert not os.path.exists(store.previous_path)
        assert store.load() is None

    def test_missing_primary_with_prev_is_torn_promote(self, store):
        _saved_twice(store)
        os.remove(store.path)
        payload = store.load()
        assert payload["sample_count"] == 600
        assert isinstance(store.last_error, CheckpointCorruptError)
        assert "torn promote" in store.last_error.reason


class TestTruncation:
    @pytest.mark.parametrize("keep_fraction", [0.0, 0.25, 0.5, 0.9])
    def test_torn_primary_falls_back_to_prev(self, store, keep_fraction):
        _saved_twice(store)
        tear_file(store.path, keep_fraction=keep_fraction)
        payload = store.load()
        # Never the torn state, always the previous verified one.
        assert payload["sample_count"] == 600
        assert isinstance(store.last_error, CheckpointCorruptError)
        assert store.last_error.path == store.path

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.5, 0.9])
    def test_torn_only_generation_raises(self, store, keep_fraction):
        store.save(PAYLOAD_ONE)
        tear_file(store.path, keep_fraction=keep_fraction)
        with pytest.raises(CheckpointCorruptError):
            store.load()

    def test_both_generations_torn_raises(self, store):
        _saved_twice(store)
        tear_file(store.path, keep_fraction=0.5)
        tear_file(store.previous_path, keep_fraction=0.5)
        with pytest.raises(CheckpointCorruptError):
            store.load()


class TestBitFlips:
    @pytest.mark.parametrize("seed", range(8))
    def test_flipped_primary_never_loads_silently(self, store, seed):
        _saved_twice(store)
        original = open(store.path, encoding="utf-8").read()
        flip_text_byte(store.path, seed=seed)
        assert open(store.path, encoding="utf-8").read() != original
        try:
            payload = store.load()
        except CheckpointCorruptError:
            return  # both generations damaged is impossible here; ok
        # Either the flip landed somewhere harmless enough that the
        # document still verifies byte-for-byte semantics (impossible:
        # CRC covers the whole canonical body), or we fell back.
        assert payload["sample_count"] == 600
        assert isinstance(store.last_error, CheckpointCorruptError)
        assert store.last_error.path == store.path

    def test_crc_mismatch_reason_for_parseable_mutation(self, store):
        store.save(PAYLOAD_TWO)
        with open(store.path, encoding="utf-8") as handle:
            document = json.load(handle)
        document["sample_count"] = 999  # parseable, semantically wrong
        with open(store.path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointCorruptError, match="crc mismatch"):
            store.load()

    def test_wrong_version_rejected(self, store):
        store.save(PAYLOAD_ONE)
        with open(store.path, encoding="utf-8") as handle:
            document = json.load(handle)
        document["version"] = 99
        with open(store.path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointCorruptError, match="version"):
            store.load()


def _strip_crc(path):
    """Rename the document's ``crc`` key and change a counter: a
    parseable document that nothing can verify."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    document["crd"] = document.pop("crc")
    document["files_done"][-1][1] = 900
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


class TestUnverifiable:
    """A document without a CRC is refused like a CRC mismatch: every
    save has always written one, so its absence means damage."""

    def test_primary_without_crc_falls_back_to_prev(self, store):
        _saved_twice(store)
        _strip_crc(store.path)
        payload = store.load()
        assert {k: payload[k] for k in PAYLOAD_ONE} == PAYLOAD_ONE
        assert isinstance(store.last_error, CheckpointCorruptError)
        assert store.last_error.path == store.path
        assert store.last_error.reason == "no crc"

    def test_only_generation_without_crc_raises(self, store):
        store.save(PAYLOAD_TWO)
        _strip_crc(store.path)
        assert not os.path.exists(store.previous_path)
        with pytest.raises(CheckpointCorruptError, match="no crc"):
            store.load()


def _crc_rule(document):
    """The CRC rule as the PR 20 writer and reader both spelled it."""
    body = {k: v for k, v in document.items() if k != "crc"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def _parent_save(path, payload):
    """``CheckpointStore.save`` as of PR 20 (two encodes, ``json.dump``),
    the format reference; generations and fsync left out."""
    document = {"version": 1, **payload}
    document["crc"] = _crc_rule(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


class TestAcrossVersions:
    """The single-encode writer changed no format: each side's reader
    verifies what the other side's writer wrote."""

    NESTED = {
        **PAYLOAD_TWO,
        "runner": {"seen": 1200, "buf_start": 1100, "digest": "ab" * 32},
        "attempts": {"ü.h5": 2},
        "expected_stamp": None,
        "ratio": 0.1 + 0.2,
    }

    def test_parent_document_loads_and_verifies(self, store):
        _parent_save(store.path, self.NESTED)
        loaded = store.load()
        assert store.last_error is None
        assert {k: loaded[k] for k in self.NESTED} == self.NESTED
        # verified, not waved through: a parseable mutation fails
        loaded["sample_count"] += 1
        with open(store.path, "w", encoding="utf-8") as handle:
            json.dump(loaded, handle)
        with pytest.raises(CheckpointCorruptError, match="crc mismatch"):
            store.load()

    def test_new_document_is_the_parent_document(self, store, tmp_path):
        store.save(self.NESTED)
        _parent_save(str(tmp_path / "parent.json"), self.NESTED)
        with open(store.path, encoding="utf-8") as handle:
            document = json.load(handle)
        with open(tmp_path / "parent.json", encoding="utf-8") as handle:
            assert document == json.load(handle)
        assert document["crc"] == _crc_rule(document)
        store.save(store.load())  # a reloaded document carries "crc" in
        assert store.load() == document and store.last_error is None


# ---------------------------------------------------------------------------
# service-level recovery
# ---------------------------------------------------------------------------

FS = 50.0
CHANNELS = 48
MINUTES = 3
SPM = 600
SIM = LocalSimilarityConfig(
    half_window=25, channel_offset=1, half_lag=5, stride=25
)
DETECTOR = DetectorConfig(band=(0.5, 12.0), similarity=SIM)
POLICY = EventPolicy(threshold=0.4, min_fraction=0.25)
CFG = ServiceConfig(
    poll_interval=0.0, settle_seconds=0.0, stable_polls=1,
    checkpoint_every=1, max_retries=2, queue_capacity=1,
)


def _spool(tmp_path):
    scene = fig1b_scene(
        n_channels=CHANNELS, fs=FS, minutes=MINUTES,
        samples_per_minute=SPM, seed=7,
    )
    spool = tmp_path / "spool"
    spool.mkdir()
    list(drip_feed_dataset(spool, MINUTES, scene=scene,
                           samples_per_minute=SPM))
    return str(spool)


def _reference_keys(spool):
    ref = RTService(spool + "-ref", detector=DETECTOR, policy=POLICY,
                    config=CFG)
    # same scene, separate state
    import shutil

    os.makedirs(spool + "-ref", exist_ok=True)
    for name in sorted(os.listdir(spool)):
        if name.endswith(".h5"):
            shutil.copy(os.path.join(spool, name),
                        os.path.join(spool + "-ref", name))
    ref = RTService(spool + "-ref", detector=DETECTOR, policy=POLICY,
                    config=CFG)
    ref.drain()
    ref.flush()
    rows, _ = read_event_log(ref.sink.path)
    return {(r, e.j_start, e.j_end) for r, e in rows}


def _ticked_twice(tmp_path):
    """A spool whose service checkpointed twice: ``(spool, store)``."""
    spool = _spool(tmp_path)
    service = RTService(spool, detector=DETECTOR, policy=POLICY, config=CFG)
    service.tick()
    service.tick()
    return spool, service.checkpoints


def _resave(store, edit):
    """Load the primary, ``edit`` it and save it again with a fresh CRC."""
    document = store.load()
    edit(document)
    store.save({k: v for k, v in document.items()
                if k not in ("version", "crc")})


class TestServiceRecovery:
    def test_torn_primary_resumes_from_prev_and_matches(self, tmp_path):
        spool = _spool(tmp_path)
        expected = _reference_keys(spool)
        service = RTService(spool, detector=DETECTOR, policy=POLICY,
                            config=CFG)
        service.tick()
        service.tick()  # two checkpoints -> .prev exists
        ckpt = service.checkpoints.path
        del service  # SIGKILL stand-in
        tear_file(ckpt, keep_fraction=0.5)
        resumed = RTService(spool, detector=DETECTOR, policy=POLICY,
                            config=CFG)
        # The fallback is surfaced as a typed reason, not silent.
        assert resumed.checkpoint_fallback is not None
        assert resumed.checkpoints.last_error.path == ckpt
        resumed.drain()
        resumed.flush()
        got = {(r, e.j_start, e.j_end)
               for r, e in read_event_log(resumed.sink.path)[0]}
        assert got == expected

    def test_total_corruption_starts_fresh_with_typed_reason(self, tmp_path):
        spool = _spool(tmp_path)
        expected = _reference_keys(spool)
        service = RTService(spool, detector=DETECTOR, policy=POLICY,
                            config=CFG)
        service.tick()  # exactly one generation
        ckpt = service.checkpoints.path
        del service
        tear_file(ckpt, keep_fraction=0.5)
        assert not os.path.exists(ckpt + PREVIOUS_SUFFIX)
        resumed = RTService(spool, detector=DETECTOR, policy=POLICY,
                            config=CFG)
        # No verifiable generation: never a silent wrong resume — the
        # service records the typed failure and replays from scratch,
        # relying on sink dedup for exactly-once events.
        assert resumed.checkpoint_fallback is not None
        assert "torn json" in resumed.checkpoint_fallback
        resumed.drain()
        resumed.flush()
        got = {(r, e.j_start, e.j_end)
               for r, e in read_event_log(resumed.sink.path)[0]}
        assert got == expected

    def test_primary_without_crc_resumes_from_prev(self, tmp_path):
        """An unverifiable primary is never resumed from: the service
        falls back to ``.prev`` and reports why."""
        spool = _spool(tmp_path)
        expected = _reference_keys(spool)
        service = RTService(spool, detector=DETECTOR, policy=POLICY,
                            config=CFG)
        service.tick()
        service.tick()  # two checkpoints -> .prev exists
        ckpt = service.checkpoints.path
        del service
        _strip_crc(ckpt)
        resumed = RTService(spool, detector=DETECTOR, policy=POLICY,
                            config=CFG)
        assert resumed.checkpoint_fallback is not None
        assert "no crc" in resumed.checkpoint_fallback
        assert resumed.checkpoints.last_error.path == ckpt
        resumed.drain()
        resumed.flush()
        got = {(r, e.j_start, e.j_end)
               for r, e in read_event_log(resumed.sink.path)[0]}
        assert got == expected

    @pytest.mark.parametrize(
        "change", [{"buf_start": 10**6}, {"emitted": 10**6}, {"seen": -1}]
    )
    def test_verified_checkpoint_with_impossible_counters_is_refused(
        self, tmp_path, change
    ):
        """A CRC-valid document whose runner counters no export writes
        (a hand edit, a writer bug): resuming would drop output or never
        emit again, so it raises — like a tampered tail, unlike a lost
        one, which degrades."""
        spool = _spool(tmp_path)
        service = RTService(spool, detector=DETECTOR, policy=POLICY,
                            config=CFG)
        service.tick()
        service.tick()
        store = service.checkpoints
        del service
        document = store.load()
        document["runner"].update(change)
        store.save({k: v for k, v in document.items()
                    if k not in ("version", "crc")})
        with pytest.raises(ConfigError):
            RTService(spool, detector=DETECTOR, policy=POLICY, config=CFG)

    @pytest.mark.parametrize(
        "key",
        ["files_done", "files_seen", "record", "expected_stamp", "runner",
         "assembler", "attempts"],
    )
    def test_verified_checkpoint_without_a_saved_key_is_refused(
        self, tmp_path, key
    ):
        """Every key ``save_checkpoint`` writes is read as written: a
        CRC-valid document that lacks one is no service's, and resuming
        it with a default would be a silent wrong resume."""
        spool, store = _ticked_twice(tmp_path)
        _resave(store, lambda document: document.pop(key))
        with pytest.raises(ConfigError, match=repr(key)):
            RTService(spool, detector=DETECTOR, policy=POLICY, config=CFG)

    @pytest.mark.parametrize(
        "key, value",
        [("files_done", [["a.h5"]]), ("files_seen", "a.h5"), ("record", 7),
         ("expected_stamp", 170620), ("runner", []), ("attempts", [["a.h5", 1]])],
    )
    def test_verified_checkpoint_with_a_mistyped_key_is_refused(
        self, tmp_path, key, value
    ):
        spool, store = _ticked_twice(tmp_path)
        _resave(store, lambda document: document.__setitem__(key, value))
        with pytest.raises(ConfigError, match=repr(key)):
            RTService(spool, detector=DETECTOR, policy=POLICY, config=CFG)

    def test_a_checkpoint_still_carrying_a_queue_field_resumes_unchanged(
        self, tmp_path
    ):
        """Checkpoints no longer record the work queue (resume never read
        it); one written when they did still resumes to the same events."""
        spool = _spool(tmp_path)
        expected = _reference_keys(spool)
        service = RTService(spool, detector=DETECTOR, policy=POLICY,
                            config=CFG)
        service.tick()
        store = service.checkpoints
        del service
        document = store.load()
        assert "queue" not in document
        document["queue"] = sorted(
            name for name in os.listdir(spool) if name.endswith(".h5")
        )
        store.save({k: v for k, v in document.items()
                    if k not in ("version", "crc")})
        resumed = RTService(spool, detector=DETECTOR, policy=POLICY,
                            config=CFG)
        assert resumed.checkpoint_fallback is None
        resumed.drain()
        resumed.flush()
        got = {(r, e.j_start, e.j_end)
               for r, e in read_event_log(resumed.sink.path)[0]}
        assert got == expected
