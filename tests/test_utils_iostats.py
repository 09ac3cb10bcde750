"""Tests for repro.utils.iostats."""

import threading

from repro.utils.iostats import IOStats


class TestIOStats:
    def test_initial_state(self):
        s = IOStats()
        assert s.opens == 0
        assert s.requests == 0
        assert s.bytes_read == 0

    def test_record_read(self):
        s = IOStats()
        s.record_read(100)
        s.record_read(50)
        assert s.reads == 2
        assert s.bytes_read == 150

    def test_total_bytes_read_is_the_snapshot_counter(self):
        s = IOStats()
        s.record_read(100)
        s.record_write(7)
        assert s.total_bytes_read() == s.snapshot()["bytes_read"] == 100

    def test_record_write(self):
        s = IOStats()
        s.record_write(64)
        assert s.writes == 1
        assert s.bytes_written == 64

    def test_requests_is_reads_plus_writes(self):
        s = IOStats()
        s.record_read(1)
        s.record_write(1)
        s.record_write(1)
        assert s.requests == 3

    def test_open_close_seek(self):
        s = IOStats()
        s.record_open()
        s.record_seek()
        s.record_close()
        assert (s.opens, s.seeks, s.closes) == (1, 1, 1)

    def test_merge(self):
        a = IOStats()
        a.record_read(10)
        b = IOStats()
        b.record_read(5)
        b.record_open()
        a.merge(b)
        assert a.reads == 2
        assert a.bytes_read == 15
        assert a.opens == 1

    def test_reset(self):
        s = IOStats()
        s.record_read(10)
        s.record_open()
        s.reset()
        assert s.snapshot() == {
            "opens": 0,
            "closes": 0,
            "seeks": 0,
            "reads": 0,
            "writes": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }

    def test_snapshot_keys(self):
        snap = IOStats().snapshot()
        assert set(snap) == {
            "opens",
            "closes",
            "seeks",
            "reads",
            "writes",
            "bytes_read",
            "bytes_written",
        }

    def test_thread_safety(self):
        s = IOStats()
        n = 200

        def worker():
            for _ in range(n):
                s.record_read(1)
                s.record_write(2)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert s.reads == 8 * n
        assert s.writes == 8 * n
        assert s.bytes_read == 8 * n
        assert s.bytes_written == 16 * n


class TestCacheCounters:
    def test_record_cache_and_pool_counters(self):
        s = IOStats()
        s.record_cache_hit()
        s.record_cache_hit()
        s.record_cache_miss()
        s.record_cache_eviction()
        s.record_cache_eviction(3)
        s.record_pool_hit()
        s.record_pool_miss()
        assert s.cache_snapshot() == {
            "cache_hits": 2,
            "cache_misses": 1,
            "cache_evictions": 4,
            "pool_hits": 1,
            "pool_misses": 1,
        }

    def test_snapshot_keeps_seven_key_shape(self):
        """The historical backend-only snapshot must not grow keys — model
        code and experiment scripts compare these dicts directly."""
        s = IOStats()
        s.record_cache_hit()
        assert set(s.snapshot()) == {
            "opens",
            "closes",
            "seeks",
            "reads",
            "writes",
            "bytes_read",
            "bytes_written",
        }

    def test_full_snapshot_is_union(self):
        s = IOStats()
        s.record_read(4)
        s.record_cache_miss()
        full = s.full_snapshot()
        assert full["reads"] == 1
        assert full["cache_misses"] == 1
        assert set(full) == set(s.snapshot()) | set(s.cache_snapshot())

    def test_merge_and_reset_cover_cache_counters(self):
        a = IOStats()
        b = IOStats()
        b.record_cache_hit()
        b.record_pool_miss()
        a.merge(b)
        assert a.cache_hits == 1
        assert a.pool_misses == 1
        a.reset()
        assert a.full_snapshot() == IOStats().full_snapshot()


class TestConcurrentMerge:
    def test_merge_while_source_mutates_never_tears(self):
        """Regression: merge() used to read the source's counters without
        its lock, so a merge racing a record_read() could observe `reads`
        incremented but not `bytes_read` (a torn read).  Merging from a
        consistent snapshot makes reads/bytes_read move in lockstep: with
        every read recording exactly 2 bytes, any observed pair must
        satisfy bytes == 2 * count."""
        src = IOStats()
        stop = threading.Event()

        def mutate():
            while not stop.is_set():
                src.record_read(2)

        t = threading.Thread(target=mutate)
        t.start()
        try:
            for _ in range(300):
                dst = IOStats()
                dst.merge(src)
                assert dst.bytes_read == 2 * dst.reads, (
                    f"torn merge: reads={dst.reads} bytes_read={dst.bytes_read}"
                )
        finally:
            stop.set()
            t.join()

    def test_concurrent_merges_and_records_accumulate_exactly(self):
        """Stress: writers record into per-thread stats while a merger
        repeatedly folds them into a total; the final fold must account
        for every operation exactly once."""
        n_threads, n_ops = 6, 400
        sources = [IOStats() for _ in range(n_threads)]
        total = IOStats()

        def writer(s):
            for _ in range(n_ops):
                s.record_read(3)
                s.record_open()

        def merger():
            # Merges of in-flight sources into a throwaway accumulator:
            # exercises lock interleaving without double counting `total`.
            for _ in range(50):
                scratch = IOStats()
                for s in sources:
                    scratch.merge(s)
                assert scratch.bytes_read == 3 * scratch.reads

        threads = [threading.Thread(target=writer, args=(s,)) for s in sources]
        threads.append(threading.Thread(target=merger))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for s in sources:
            total.merge(s)
        assert total.reads == n_threads * n_ops
        assert total.bytes_read == 3 * n_threads * n_ops
        assert total.opens == n_threads * n_ops

    def test_merge_both_directions_no_deadlock(self):
        """a.merge(b) concurrent with b.merge(a) must not deadlock (the
        snapshot-based merge never holds both locks at once)."""
        a = IOStats()
        b = IOStats()
        a.record_read(1)
        b.record_write(1)
        done = []

        def ab():
            for _ in range(200):
                a.merge(b)
            done.append("ab")

        def ba():
            for _ in range(200):
                b.merge(a)
            done.append("ba")

        t1, t2 = threading.Thread(target=ab), threading.Thread(target=ba)
        t1.start()
        t2.start()
        t1.join(timeout=30)
        t2.join(timeout=30)
        assert done.count("ab") == 1 and done.count("ba") == 1
