"""Tests for the fault-injection harness (`repro.faults.inject`), the
shared failure policy (`repro.faults.policy`), and ApplyMT's fail-fast
handling of a failing UDF."""

import threading
import time

import numpy as np
import pytest

from repro.arrayudf.apply_mt import apply_mt
from repro.errors import ConfigError, DegradedReadError, UDFError
from repro.faults.inject import (
    KINDS,
    FaultInjector,
    clear_read_faults,
    install_read_fault,
    read_faults,
)
from repro.faults.policy import CONTINUE, FailurePolicy, retry_call
from repro.hdf5lite import File


@pytest.fixture(autouse=True)
def _clean_hooks():
    yield
    clear_read_faults()


class TestFaultInjector:
    def test_choose_is_seeded_and_order_preserving(self):
        paths = [f"f{i}.h5" for i in range(40)]
        a = FaultInjector(seed=7).choose(paths, fraction=0.25)
        b = FaultInjector(seed=7).choose(paths, fraction=0.25)
        c = FaultInjector(seed=8).choose(paths, fraction=0.25)
        assert a == b
        assert a != c
        assert a == [p for p in paths if p in set(a)]
        assert len(a) == 10

    def test_choose_at_least(self):
        paths = ["a", "b", "c"]
        assert len(FaultInjector(0).choose(paths, fraction=0.0)) == 1

    def test_bit_flip_changes_exactly_one_bit_in_data(self, tmp_path):
        path = str(tmp_path / "x.h5")
        with File(path, "w") as f:
            f.create_dataset("d", data=np.arange(64, dtype=np.float64))
        before = open(path, "rb").read()
        offset = FaultInjector(seed=3).bit_flip(path)
        after = open(path, "rb").read()
        assert len(before) == len(after)
        diffs = [i for i, (x, y) in enumerate(zip(before, after)) if x != y]
        assert diffs == [offset]
        assert bin(before[offset] ^ after[offset]).count("1") == 1

    def test_bit_flip_is_seeded(self, tmp_path):
        offs = []
        for trial in range(2):
            path = str(tmp_path / f"s{trial}.h5")
            with File(path, "w") as f:
                f.create_dataset("d", data=np.arange(64, dtype=np.float64))
            offs.append(FaultInjector(seed=11).bit_flip(path))
        assert offs[0] == offs[1]

    def test_truncate_and_vanish(self, tmp_path):
        path = str(tmp_path / "t.h5")
        with File(path, "w") as f:
            f.create_dataset("d", data=np.zeros(128))
        import os

        size = os.path.getsize(path)
        new = FaultInjector(0).truncate(path, keep_fraction=0.25)
        assert os.path.getsize(path) == new < size
        FaultInjector(0).vanish(path)
        assert not os.path.exists(path)

    def test_inject_dispatch_and_log(self, tmp_path):
        path = str(tmp_path / "v.h5")
        with File(path, "w") as f:
            f.create_dataset("d", data=np.zeros(16))
        inj = FaultInjector(0)
        inj.inject("truncate", path)
        assert inj.injected == [("truncate", path)]
        with pytest.raises(ConfigError):
            inj.inject("meteor-strike", path)
        assert "bit-flip" in KINDS


class TestReadHooks:
    def _write(self, tmp_path, name="h.h5"):
        path = str(tmp_path / name)
        with File(path, "w") as f:
            f.create_dataset("d", data=np.arange(32, dtype=np.float64))
        return path

    def test_raise_on_nth_read_is_transient(self, tmp_path):
        path = self._write(tmp_path)
        install_read_fault(path, "raise-on-nth-read", fail_reads=1)
        with pytest.raises(DegradedReadError):
            with File(path, "r") as f:
                f.dataset("d").read()
        # The hook is spent: the next read succeeds.
        with File(path, "r") as f:
            assert f.dataset("d").read()[5] == 5.0

    def test_slow_read_delays(self, tmp_path):
        path = self._write(tmp_path)
        t0 = time.perf_counter()
        with File(path, "r") as f:
            f.dataset("d").read()
        fast = time.perf_counter() - t0
        install_read_fault(path, "slow-read", delay=0.05)
        t0 = time.perf_counter()
        with File(path, "r") as f:
            f.dataset("d").read()
        assert time.perf_counter() - t0 >= fast + 0.04

    def test_clear_and_context_manager(self, tmp_path):
        path = self._write(tmp_path)
        install_read_fault(path, "raise-on-nth-read", fail_reads=99)
        clear_read_faults(path)
        with File(path, "r") as f:
            f.dataset("d").read()
        with read_faults(**{path: {"kind": "raise-on-nth-read", "fail_reads": 99}}):
            with pytest.raises(DegradedReadError):
                with File(path, "r") as f:
                    f.dataset("d").read()
        with File(path, "r") as f:
            f.dataset("d").read()

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            install_read_fault(self._write(tmp_path), "gamma-ray")


class TestRetryCall:
    def test_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return 42

        assert retry_call(flaky, retries=2) == 42
        assert len(calls) == 3

    def test_exhausted_retries_propagate(self):
        def dead():
            raise OSError("gone")

        with pytest.raises(OSError):
            retry_call(dead, retries=2)

    def test_non_retryable_raises_immediately(self):
        calls = []

        def bug():
            calls.append(1)
            raise ValueError("logic")

        with pytest.raises(ValueError):
            retry_call(bug, retries=5)
        assert len(calls) == 1

    def test_backoff_grows_exponentially(self):
        slept = []

        def dead():
            raise OSError("x")

        with pytest.raises(OSError):
            retry_call(dead, retries=3, backoff=0.1, sleep=slept.append)
        assert slept == pytest.approx([0.1, 0.2, 0.4])


class TestFailurePolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FailurePolicy(mode="explode")
        with pytest.raises(ConfigError):
            FailurePolicy(retries=-1)
        assert FailurePolicy().fail_fast
        assert not FailurePolicy(mode=CONTINUE).fail_fast


def _mean(s):
    return float(np.mean([s(0, -1), s(0, 0), s(0, 1)]))


class TestApplyMTFaultTolerance:
    """ApplyMT is the paper's static schedule and nothing else: a failing
    UDF stops the apply with a typed error, once, on any thread."""

    @pytest.fixture
    def block(self):
        return np.random.default_rng(0).normal(size=(8, 32))

    def test_fail_fast_raises_typed_error(self, block):
        def broken(s):
            if s.row == 3:
                raise OSError("dead sector")
            return _mean(s)

        with pytest.raises(UDFError, match="UDF failed in ApplyMT") as err:
            apply_mt(block, broken, threads=4, boundary="clamp")
        assert isinstance(err.value.__cause__, OSError)

    def test_non_retryable_udf_bug_not_retried(self, block):
        count = {"n": 0}
        lock = threading.Lock()

        def bug(s):
            if (s.row, s.col) == (2, 2):
                with lock:
                    count["n"] += 1
                raise ValueError("logic bug")
            return _mean(s)

        with pytest.raises(UDFError, match="ValueError"):
            apply_mt(block, bug, threads=1, boundary="clamp")
        assert count["n"] == 1

    def test_removed_fault_options_fail_loudly(self, block):
        with pytest.raises(TypeError):
            apply_mt(block, _mean, threads=4, boundary="clamp", policy=FailurePolicy())
        with pytest.raises(TypeError):
            apply_mt(block, _mean, threads=4, boundary="clamp", failures=[])
        with pytest.raises(TypeError):
            FailurePolicy(timeout=0.05)
