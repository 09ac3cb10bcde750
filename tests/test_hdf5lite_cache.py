"""Tests for the hdf5lite read-side cache layer (cache.py) and its wiring
through contiguous, chunked, and virtual reads."""

import os

import numpy as np
import pytest

from repro.errors import ConfigError, FormatError
from repro.hdf5lite import BlockCache, CacheConfig, File, FilePool
from repro.hdf5lite.cache import DEFAULT_MAX_HANDLES, resolve_cache
from repro.storage.chunks import SourceView, open_stream
from repro.storage.vca import VCA_DATASET, VCAHandle, create_vca
from repro.utils.iostats import IOStats


# ---------------------------------------------------------------------------
# CacheConfig / BlockCache unit behaviour
# ---------------------------------------------------------------------------
class TestCacheConfig:
    def test_defaults_enabled(self):
        cfg = CacheConfig()
        assert cfg.enabled
        assert cfg.byte_budget > 0

    def test_budget_zero_disables(self):
        assert not CacheConfig(byte_budget=0).enabled

    def test_validation(self):
        with pytest.raises(FormatError):
            CacheConfig(byte_budget=-1)
        with pytest.raises(FormatError):
            CacheConfig(page_size=0)

    def test_resolve_cache(self):
        assert resolve_cache(None) is None
        assert resolve_cache(CacheConfig(byte_budget=0)) is None
        cache = BlockCache(CacheConfig(byte_budget=1024))
        assert resolve_cache(cache) is cache
        assert isinstance(resolve_cache(CacheConfig()), BlockCache)
        with pytest.raises(FormatError):
            resolve_cache("not a cache")


class TestBlockCache:
    def test_get_put_and_counters(self):
        stats = IOStats()
        cache = BlockCache(CacheConfig(byte_budget=100), iostats=stats)
        key = ("f", "page", 0, 0)
        assert cache.get(key) is None
        cache.put(key, b"abc")
        assert cache.get(key) == b"abc"
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert cache.current_bytes == 3

    def test_lru_eviction_respects_budget(self):
        stats = IOStats()
        cache = BlockCache(CacheConfig(byte_budget=10), iostats=stats)
        cache.put(("f", 1), b"aaaa")
        cache.put(("f", 2), b"bbbb")
        cache.put(("f", 3), b"cccc")  # evicts ("f", 1)
        assert cache.get(("f", 1)) is None
        assert cache.get(("f", 3)) == b"cccc"
        assert stats.cache_evictions == 1
        assert cache.current_bytes <= 10

    def test_recently_used_survives(self):
        cache = BlockCache(CacheConfig(byte_budget=10))
        cache.put(("f", 1), b"aaaa")
        cache.put(("f", 2), b"bbbb")
        assert cache.get(("f", 1)) == b"aaaa"  # bump recency
        cache.put(("f", 3), b"cccc")  # now ("f", 2) is LRU
        assert cache.get(("f", 1)) == b"aaaa"
        assert cache.get(("f", 2)) is None

    def test_oversized_block_not_admitted(self):
        cache = BlockCache(CacheConfig(byte_budget=4))
        cache.put(("f", 1), b"toolarge")
        assert len(cache) == 0

    def test_counters_flow_into_iostats(self):
        stats = IOStats()
        cache = BlockCache(CacheConfig(byte_budget=8), iostats=stats)
        cache.get(("f", 1))
        cache.put(("f", 1), b"aaaa")
        cache.get(("f", 1))
        cache.put(("f", 2), b"bbbbbb")  # evicts ("f", 1)
        assert (stats.cache_misses, stats.cache_hits, stats.cache_evictions) == (
            1,
            1,
            1,
        )


# ---------------------------------------------------------------------------
# Cached reads: contiguous, chunked, virtual
# ---------------------------------------------------------------------------
@pytest.fixture
def contiguous_file(tmp_path):
    path = str(tmp_path / "c.h5")
    data = np.arange(64 * 100, dtype=np.float32).reshape(64, 100)
    with File(path, "w") as f:
        f.create_dataset("D", data=data)
    return path, data


@pytest.fixture
def chunked_file(tmp_path):
    path = str(tmp_path / "k.h5")
    data = np.arange(40 * 60, dtype=np.float64).reshape(40, 60)
    with File(path, "w") as f:
        f.create_dataset("D", data=data, chunks=(16, 16))
    return path, data


class TestContiguousCached:
    def test_correctness_full_and_sliced(self, contiguous_file):
        path, data = contiguous_file
        with File(path, "r", cache=CacheConfig()) as f:
            ds = f.dataset("D")
            np.testing.assert_array_equal(ds.read(), data)
            np.testing.assert_array_equal(ds[3:17, 5:90], data[3:17, 5:90])
            np.testing.assert_array_equal(ds[::3, ::7], data[::3, ::7])

    def test_repeat_read_hits_cache_no_new_backend_reads(self, contiguous_file):
        path, data = contiguous_file
        stats = IOStats()
        with File(path, "r", iostats=stats, cache=CacheConfig()) as f:
            ds = f.dataset("D")
            ds.read()
            reads_after_first = stats.reads
            ds.read()
            ds[10:20, :]
            assert stats.reads == reads_after_first
            assert stats.cache_hits > 0

    def test_small_page_size_correctness(self, contiguous_file):
        path, data = contiguous_file
        cfg = CacheConfig(page_size=97)  # deliberately unaligned
        with File(path, "r", cache=cfg) as f:
            np.testing.assert_array_equal(f.dataset("D").read(), data)
            np.testing.assert_array_equal(
                f.dataset("D")[5:40, 13:88], data[5:40, 13:88]
            )

    def test_budget_zero_matches_seed_counts(self, contiguous_file):
        path, data = contiguous_file

        def read_all(cache):
            stats = IOStats()
            with File(path, "r", iostats=stats, cache=cache) as f:
                ds = f.dataset("D")
                a = ds.read()
                b = ds[3:17, 5:90]
                c = ds[::3, ::7]
            return stats.full_snapshot(), (a, b, c)

        seed_snap, seed_out = read_all(None)
        zero_snap, zero_out = read_all(CacheConfig(byte_budget=0))
        assert seed_snap == zero_snap
        for x, y in zip(seed_out, zero_out):
            np.testing.assert_array_equal(x, y)

    def test_gap_coalescing_reduces_requests(self, tmp_path):
        # A column selection of a row-major array: one short run per row,
        # 188 bytes apart.  Every contiguous path bridges such holes:
        # uncached it is one bounding-span request instead of one per row,
        # cached it is one request for the page.
        path = str(tmp_path / "w.h5")
        data = np.arange(200 * 50, dtype=np.float32).reshape(200, 50)
        with File(path, "w") as f:
            f.create_dataset("D", data=data)

        def data_reads(**kwargs):
            stats = IOStats()
            with File(path, "r", iostats=stats, **kwargs) as f:
                ds = f.dataset("D")
                before = stats.reads
                sel = ds[:, 10:13]
                return sel, stats.reads - before

        sel_seed, seed_reads = data_reads()
        sel_cached, cached_reads = data_reads(cache=CacheConfig())
        np.testing.assert_array_equal(sel_seed, data[:, 10:13])
        np.testing.assert_array_equal(sel_seed, sel_cached)
        assert seed_reads == 1
        assert cached_reads == 1

    def test_eviction_under_tiny_budget_still_correct(self, contiguous_file):
        path, data = contiguous_file
        stats = IOStats()
        # Budget fits ~2 pages of 1 KiB; the read set needs many more.
        cfg = CacheConfig(byte_budget=2048, page_size=1024)
        with File(path, "r", iostats=stats, cache=cfg) as f:
            np.testing.assert_array_equal(f.dataset("D").read(), data)
            np.testing.assert_array_equal(f.dataset("D").read(), data)
        assert stats.cache_evictions > 0


class TestChunkedCached:
    def test_correctness(self, chunked_file):
        path, data = chunked_file
        with File(path, "r", cache=CacheConfig()) as f:
            ds = f.dataset("D")
            np.testing.assert_array_equal(ds.read(), data)
            np.testing.assert_array_equal(ds[7:25, 10:45], data[7:25, 10:45])
            np.testing.assert_array_equal(ds[::2, ::5], data[::2, ::5])

    def test_miss_loads_whole_chunk_once(self, chunked_file):
        path, data = chunked_file
        stats = IOStats()
        with File(path, "r", iostats=stats, cache=CacheConfig()) as f:
            ds = f.dataset("D")
            before = stats.reads
            # Touches exactly one chunk (rows 0-15, cols 0-15) twice.
            ds[2:10, 3:12]
            assert stats.reads - before == 1  # one whole-chunk request
            ds[0:16, 0:16]
            assert stats.reads - before == 1  # second touch is a hit
            assert stats.cache_hits >= 1

    def test_repeat_full_read_no_new_reads(self, chunked_file):
        path, data = chunked_file
        stats = IOStats()
        with File(path, "r", iostats=stats, cache=CacheConfig()) as f:
            ds = f.dataset("D")
            ds.read()
            after_first = stats.reads
            np.testing.assert_array_equal(ds.read(), data)
            assert stats.reads == after_first

    def test_chunk_larger_than_budget_falls_back(self, chunked_file):
        path, data = chunked_file
        # One 16x16 float64 chunk is 2048 B > budget; per-run fallback.
        stats = IOStats()
        with File(path, "r", iostats=stats, cache=CacheConfig(byte_budget=100)) as f:
            np.testing.assert_array_equal(f.dataset("D").read(), data)
        assert stats.cache_hits == 0

    def test_eviction_cycling_small_budget(self, chunked_file):
        path, data = chunked_file
        # Budget holds exactly one 2048-byte chunk: every new chunk evicts.
        stats = IOStats()
        with File(path, "r", iostats=stats, cache=CacheConfig(byte_budget=2048)) as f:
            np.testing.assert_array_equal(f.dataset("D").read(), data)
        assert stats.cache_evictions > 0

    def test_budget_zero_matches_seed_counts(self, chunked_file):
        path, _ = chunked_file

        def read_all(cache):
            stats = IOStats()
            with File(path, "r", iostats=stats, cache=cache) as f:
                f.dataset("D").read()
                f.dataset("D")[5:30, 7:50]
            return stats.full_snapshot()

        assert read_all(None) == read_all(CacheConfig(byte_budget=0))


class TestWriteInvalidation:
    """A shared cache keys its blocks on the opened file's identity, so a
    path published again is never served from the old file's blocks."""

    def test_write_then_cached_read_sees_new_data(self, tmp_path):
        path = str(tmp_path / "c.h5")
        cache = BlockCache()

        def write(value):
            with File(path, "w") as f:
                f.create_dataset(
                    "D", data=np.full((8, 64), value, dtype=np.float32),
                    chunks=(8, 16), checksum=True,
                )

        write(1.0)
        with File(path, "r", cache=cache) as f:
            assert (f.dataset("D").read() == 1.0).all()
        assert len(cache) > 0
        write(2.0)  # same path, same layout, same size; no cache passed
        with File(path, "r") as f:
            assert (f.dataset("D").read() == 2.0).all()
        with File(path, "r", cache=cache) as f:
            assert (f.dataset("D").read() == 2.0).all()

    def test_truncating_open_invalidates_shared_cache(self, tmp_path):
        path = str(tmp_path / "t.h5")
        cache = BlockCache()
        with File(path, "w") as f:
            f.create_dataset("D", data=np.ones((4, 4), dtype=np.float32))
        with File(path, "r", cache=cache) as f:
            f.dataset("D").read()
        assert len(cache) > 0
        # a writable file takes no cache: there is nothing to invalidate
        for arg in (cache, CacheConfig()):
            with pytest.raises(ConfigError, match="takes no cache"):
                File(path, "w", cache=arg)
        assert not os.path.exists(path + ".tmp")
        with File(path, "w") as f:
            f.create_dataset("D", data=np.zeros((4, 4), dtype=np.float32))
        with File(path, "r", cache=cache) as f:
            np.testing.assert_array_equal(
                f.dataset("D").read(), np.zeros((4, 4), dtype=np.float32)
            )


# ---------------------------------------------------------------------------
# FilePool
# ---------------------------------------------------------------------------
class TestFilePool:
    def test_acquire_reuses_handle(self, contiguous_file):
        path, _ = contiguous_file
        with FilePool() as pool:
            a = pool.acquire(path)
            b = pool.acquire(path)
            assert a is b
            assert len(pool) == 1

    def test_pool_hit_counters_in_iostats(self, contiguous_file):
        path, _ = contiguous_file
        stats = IOStats()
        with FilePool(iostats=stats) as pool:
            pool.acquire(path)
            pool.acquire(path)
        assert (stats.pool_misses, stats.pool_hits) == (1, 1)

    def test_eviction_closes_lru_handle(self, tmp_path):
        paths = []
        for i in range(DEFAULT_MAX_HANDLES + 1):
            p = str(tmp_path / f"p{i}.h5")
            with File(p, "w") as f:
                f.create_dataset("D", data=np.ones((2, 2), dtype=np.float32))
            paths.append(p)
        with FilePool() as pool:
            handles = [pool.acquire(p) for p in paths]  # the last evicts the first
            # the least recently used handle, and only it, was closed
            assert [h.closed for h in handles] == [True] + [False] * DEFAULT_MAX_HANDLES
            assert len(pool) == DEFAULT_MAX_HANDLES
            # Re-acquiring an evicted path reopens it.
            h0b = pool.acquire(paths[0])
            assert not h0b.closed

    def test_close_all(self, contiguous_file):
        path, _ = contiguous_file
        pool = FilePool()
        h = pool.acquire(path)
        pool.close_all()
        assert h.closed
        assert len(pool) == 0


# ---------------------------------------------------------------------------
# Virtual reads (VCA) through cache + pool
# ---------------------------------------------------------------------------
class TestVirtualCached:
    def test_vca_read_correct_through_pool(self, das_dir, tmp_path):
        vca_path = create_vca(str(tmp_path / "v.h5"), das_dir["paths"])
        cache = BlockCache()
        with FilePool(cache=cache) as pool:
            with VCAHandle(vca_path, pool=pool) as vca:
                np.testing.assert_array_equal(vca.dataset.read(), das_dir["full"])

    def test_repeated_vca_reads_do_not_grow_opens(self, das_dir, tmp_path):
        """Regression: each VCAHandle used to re-open the VCA file and every
        source file; with a pool, opens stay flat across repeats."""
        vca_path = create_vca(str(tmp_path / "v.h5"), das_dir["paths"])
        stats = IOStats()
        cache = BlockCache(iostats=stats)
        with FilePool(iostats=stats, cache=cache) as pool:
            with VCAHandle(vca_path, iostats=stats, pool=pool) as vca:
                vca.dataset.read()
            opens_after_first = stats.opens
            for _ in range(3):
                with VCAHandle(vca_path, iostats=stats, pool=pool) as vca:
                    vca.dataset.read()
            assert stats.opens == opens_after_first
            assert stats.pool_hits >= 3

    def test_repeated_vca_reads_no_new_backend_reads(self, das_dir, tmp_path):
        vca_path = create_vca(str(tmp_path / "v.h5"), das_dir["paths"])
        stats = IOStats()
        cache = BlockCache(iostats=stats)
        with FilePool(iostats=stats, cache=cache) as pool:
            with VCAHandle(vca_path, iostats=stats, pool=pool) as vca:
                first = vca.dataset.read()
            reads_after_first = stats.reads
            with VCAHandle(vca_path, iostats=stats, pool=pool) as vca:
                second = vca.dataset.read()
            assert stats.reads == reads_after_first
        np.testing.assert_array_equal(first, second)

    def test_vca_cached_without_pool(self, das_dir, tmp_path):
        """Cache propagates from the VCA file to the sources of its own pool."""
        vca_path = create_vca(str(tmp_path / "v.h5"), das_dir["paths"])
        stats = IOStats()
        with File(vca_path, "r", iostats=stats, cache=CacheConfig()) as f:
            f.dataset(VCA_DATASET).read()
            reads_after_first = stats.reads
            np.testing.assert_array_equal(
                f.dataset(VCA_DATASET).read(), das_dir["full"]
            )
            assert stats.reads == reads_after_first

    def test_partial_vca_read_correct(self, das_dir, tmp_path):
        vca_path = create_vca(str(tmp_path / "v.h5"), das_dir["paths"])
        cache = BlockCache()
        with FilePool(cache=cache) as pool:
            with VCAHandle(vca_path, pool=pool) as vca:
                np.testing.assert_array_equal(
                    vca.dataset[4:12, 100:500], das_dir["full"][4:12, 100:500]
                )

    def test_budget_zero_vca_matches_seed(self, das_dir, tmp_path):
        vca_path = create_vca(str(tmp_path / "v.h5"), das_dir["paths"])

        def read(cache):
            stats = IOStats()
            with File(vca_path, "r", iostats=stats, cache=cache) as f:
                np.testing.assert_array_equal(
                    f.dataset(VCA_DATASET).read(), das_dir["full"]
                )
            return stats.full_snapshot()

        assert read(None) == read(CacheConfig(byte_budget=0))

    def test_three_passes_open_and_read_less_than_uncached(self, das_dir, tmp_path):
        """Three passes with and without a shared pool + cache: uncached,
        every pass re-opens and re-reads every source; cached, only the first."""
        vca_path = create_vca(str(tmp_path / "v.h5"), das_dir["paths"])

        def three_passes(pool, stats):
            for _ in range(3):
                with VCAHandle(vca_path, iostats=stats, pool=pool) as vca:
                    np.testing.assert_array_equal(vca.dataset.read(), das_dir["full"])
            return stats.full_snapshot()

        uncached = three_passes(None, IOStats())
        stats = IOStats()
        with FilePool(iostats=stats, cache=BlockCache(iostats=stats)) as pool:
            cached = three_passes(pool, stats)
        assert cached["opens"] * 3 == uncached["opens"]  # each file once
        assert 0 < cached["reads"] < uncached["reads"]


class TestOpenLav:
    def test_view_through_pool(self, das_dir, tmp_path):
        """A logical array view (``SourceView``) over a VCA opened through
        a pool; a second one over the same file opens nothing."""
        vca_path = create_vca(str(tmp_path / "v.h5"), das_dir["paths"])
        stats = IOStats()
        with FilePool(iostats=stats, cache=BlockCache(iostats=stats)) as pool:
            with open_stream(vca_path, pool=pool) as handle:
                view = SourceView(handle, channel_lo=2, channel_hi=10)
                np.testing.assert_array_equal(
                    view.read(0, view.n_samples), das_dir["full"][2:10]
                )
            opens = stats.opens
            # A second view over the same file: no new open.
            with open_stream(vca_path, pool=pool) as handle:
                view2 = SourceView(handle, t1=50)
                np.testing.assert_array_equal(
                    view2.read(0, view2.n_samples), das_dir["full"][:, :50]
                )
            assert stats.opens == opens
