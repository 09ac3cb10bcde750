"""Runtime lock sanitizer: order-inversion and guarded-write detection.

The seeded cases model the two real concurrency bugs the static
analyzer cannot see: lock-order inversions established across *calls*
(not lexically), and guarded state reached without its lock through an
alias.  The clean cases prove the annotated production classes
(BlockCache) survive a sanitized hammering, and that nothing is
instrumented when the sanitizer is not installed.
"""

import threading

import pytest

from repro.checks.runtime import LockSanitizer, LockSanitizerError, SanitizedLock
from repro.hdf5lite.cache import BlockCache, CacheConfig
from repro.utils.iostats import IOStats


class Account:
    """Seeded bug: ``transfer`` takes locks in argument order, so
    transfer(a, b) concurrent with transfer(b, a) can deadlock."""

    def __init__(self):
        self.lock = threading.Lock()
        self.balance = 0


def transfer(src: Account, dst: Account, amount: int) -> None:
    with src.lock:
        with dst.lock:
            src.balance -= amount
            dst.balance += amount


def test_seeded_lock_order_inversion_is_caught(lock_sanitizer):
    a, b = Account(), Account()
    transfer(a, b, 5)
    transfer(b, a, 5)  # the opposite order: the classic deadlock seed
    violations = lock_sanitizer.violations_of("lock-order-inversion")
    assert len(violations) == 1
    assert "potential deadlock" in violations[0].message
    with pytest.raises(LockSanitizerError, match="lock-discipline violation"):
        lock_sanitizer.raise_on_violations()


def test_consistent_order_is_clean(lock_sanitizer):
    a, b = Account(), Account()
    transfer(a, b, 5)
    transfer(a, b, 3)  # same order every time: no inversion
    assert lock_sanitizer.violations == []


def test_inversion_detected_without_a_second_thread():
    sanitizer = LockSanitizer()
    first = sanitizer.Lock("A")
    second = sanitizer.Lock("B")
    with first:
        with second:
            pass
    with second:
        with first:
            pass
    assert len(sanitizer.violations_of("lock-order-inversion")) == 1
    # The reverse pair is known now; repeating it is not re-reported.
    with second:
        with first:
            pass
    assert len(sanitizer.violations_of("lock-order-inversion")) == 1


def test_guarded_write_without_lock_is_caught():
    sanitizer = LockSanitizer()
    with sanitizer:
        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0  # guarded-by: _lock

            def bump_locked(self):
                with self._lock:
                    self.count += 1

            def bump_racy(self):
                self.count += 1  # the seeded race

        stats = Stats()
    sanitizer.guard_attributes(stats, ["count"])
    stats.bump_locked()
    assert sanitizer.violations == []
    stats.bump_racy()
    violations = sanitizer.violations_of("unguarded-write")
    assert len(violations) == 1
    assert "count" in violations[0].message
    assert stats.count == 2  # detection does not corrupt the write


def test_guard_attributes_requires_sanitized_lock():
    sanitizer = LockSanitizer()

    class Plain:
        def __init__(self):
            self._lock = threading.Lock()
            self.x = 0

    with pytest.raises(LockSanitizerError, match="not a sanitized lock"):
        sanitizer.guard_attributes(Plain(), ["x"])


def test_blockcache_is_clean_under_sanitized_hammer():
    sanitizer = LockSanitizer()
    stats = IOStats()
    with sanitizer:
        cache = BlockCache(CacheConfig(byte_budget=64 * 20), iostats=stats)
    sanitizer.guard_attributes(cache, ["_current_bytes"], "_lock")

    def hammer(seed: int) -> None:
        for i in range(200):
            key = ("file", seed % 2, i % 17)
            if cache.get(key) is None:
                cache.put(key, bytes(64))

    workers = [threading.Thread(target=hammer, args=(n,)) for n in range(4)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    sanitizer.raise_on_violations()  # annotated discipline holds at runtime
    assert stats.cache_hits + stats.cache_misses == 4 * 200
    assert stats.cache_evictions > 0  # 34 keys of 64 B overflow the 20-block budget


def test_reentrant_rlock_is_not_an_inversion():
    sanitizer = LockSanitizer()
    outer = sanitizer.RLock("R")
    inner = sanitizer.Lock("L")
    with outer:
        with outer:  # re-entry: no self-edge, no violation
            with inner:
                pass
    assert sanitizer.violations == []


def test_condition_works_over_sanitized_rlock():
    sanitizer = LockSanitizer()
    condition = threading.Condition(sanitizer.RLock("cv"))
    ready = []

    def waiter():
        with condition:
            while not ready:
                condition.wait(timeout=1.0)

    thread = threading.Thread(target=waiter)
    thread.start()
    with condition:
        ready.append(1)
        condition.notify()
    thread.join(timeout=2.0)
    assert not thread.is_alive()


def test_thread_start_while_installed_does_not_recurse(lock_sanitizer):
    # Regression: a starting thread fires its ``_started`` Event (a
    # sanitized lock) *before* registering in ``threading._active``;
    # the acquire hook must not call ``current_thread()`` there — the
    # ``_DummyThread`` it builds constructs another sanitized Event and
    # recurses forever, hanging ``Thread.start()``.
    ran = []
    thread = threading.Thread(target=lambda: ran.append(1))
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert ran == [1]
    assert lock_sanitizer.violations == []


def test_condition_works_over_sanitized_plain_lock():
    # Condition binds the RLock protocol hooks by hasattr; the wrapper
    # always exposes them, so its non-reentrant branch must reproduce
    # Condition's own plain-lock fallbacks.
    sanitizer = LockSanitizer()
    condition = threading.Condition(sanitizer.Lock("plain-cv"))
    ready = []

    def waiter():
        with condition:
            while not ready:
                condition.wait(timeout=1.0)

    thread = threading.Thread(target=waiter)
    thread.start()
    with condition:
        ready.append(1)
        condition.notify()
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert sanitizer.violations == []


def test_no_instrumentation_when_not_installed():
    # Production default: plain threading locks, zero sanitizer overhead.
    assert not isinstance(threading.Lock(), SanitizedLock)
    assert not isinstance(BlockCache()._lock, SanitizedLock)


def test_install_uninstall_restores_factories():
    sanitizer = LockSanitizer()
    with sanitizer:
        assert isinstance(threading.Lock(), SanitizedLock)
        assert isinstance(threading.RLock(), SanitizedLock)
    assert not isinstance(threading.Lock(), SanitizedLock)
    assert not isinstance(threading.RLock(), SanitizedLock)
