"""Tests for the storage cost model and its discrete-event scheduler."""

import pytest

from repro.cluster.storage import BurstBufferModel, IORequest, StorageModel
from repro.errors import ConfigError


@pytest.fixture
def disk():
    return StorageModel(
        ost_count=4,
        ost_bandwidth=1e9,
        client_bandwidth=1e9,
        open_overhead=1e-3,
        per_request_overhead=1e-4,
    )


class TestSingleStream:
    def test_request_time_open(self, disk):
        assert disk.request_time(0, is_open=True) == pytest.approx(1e-3)

    def test_request_time_read(self, disk):
        assert disk.request_time(10**9) == pytest.approx(1e-4 + 1.0)

    def test_sequential_read_time(self, disk):
        t = disk.sequential_read_time(nbytes=10**9, nrequests=10, nopens=2)
        assert t == pytest.approx(2e-3 + 10e-4 + 1.0)

    def test_negative_rejected(self, disk):
        with pytest.raises(ConfigError):
            disk.request_time(-1)
        with pytest.raises(ConfigError):
            disk.sequential_read_time(1, -1)

    def test_aggregate_properties(self, disk):
        assert disk.aggregate_bandwidth == pytest.approx(4e9)

    def test_invalid_model(self):
        with pytest.raises(ConfigError):
            StorageModel(ost_count=0)
        with pytest.raises(ConfigError):
            StorageModel(open_overhead=-1)


class TestScheduler:
    def test_empty_batch(self, disk):
        assert disk.schedule([]) == {}
        assert disk.makespan([]) == 0.0

    def test_single_request(self, disk):
        reqs = [IORequest(rank=0, file_id=0, nbytes=10**6)]
        finish = disk.schedule(reqs)
        assert finish[0] == pytest.approx(1e-4 + 1e-3)

    def test_same_ost_serialises(self, disk):
        # two files 4 apart -> same OST -> served back to back
        reqs = [
            IORequest(rank=0, file_id=0, nbytes=10**6),
            IORequest(rank=1, file_id=4, nbytes=10**6),
        ]
        finish = disk.schedule(reqs)
        single = 1e-4 + 1e-3
        assert finish[0] == pytest.approx(single)
        assert finish[1] == pytest.approx(2 * single)

    def test_different_osts_parallel(self, disk):
        reqs = [
            IORequest(rank=0, file_id=0, nbytes=10**6),
            IORequest(rank=1, file_id=1, nbytes=10**6),
        ]
        finish = disk.schedule(reqs)
        single = 1e-4 + 1e-3
        assert finish[0] == pytest.approx(single)
        assert finish[1] == pytest.approx(single)

    def test_client_serialises_own_requests(self, disk):
        reqs = [
            IORequest(rank=0, file_id=0, nbytes=10**6),
            IORequest(rank=0, file_id=1, nbytes=10**6),
        ]
        finish = disk.schedule(reqs)
        assert finish[0] == pytest.approx(2 * (1e-4 + 1e-3))

    def test_start_time_respected(self, disk):
        reqs = [IORequest(rank=0, file_id=0, nbytes=0, start=5.0)]
        assert disk.schedule(reqs)[0] == pytest.approx(5.0 + 1e-4)

    def test_open_flag_uses_open_overhead(self, disk):
        reqs = [IORequest(rank=0, file_id=0, nbytes=0, is_open=True)]
        assert disk.schedule(reqs)[0] == pytest.approx(1e-3)

    def test_contention_grows_with_clients(self, disk):
        def batch(n):
            return [IORequest(rank=r, file_id=0, nbytes=10**6) for r in range(n)]

        assert disk.makespan(batch(16)) > disk.makespan(batch(4)) > disk.makespan(batch(1))

    def test_makespan_deterministic(self, disk):
        reqs = [
            IORequest(rank=r, file_id=f, nbytes=10**5)
            for r in range(8)
            for f in range(6)
        ]
        assert disk.makespan(list(reqs)) == disk.makespan(list(reversed(reqs)))


class TestBurstBuffer:
    def test_far_higher_iops(self):
        def iops(model):
            return model.ost_count / model.per_request_overhead

        assert iops(BurstBufferModel()) > 40 * iops(StorageModel())

    def test_cheaper_small_requests(self):
        disk = StorageModel()
        bb = BurstBufferModel()
        # 10k tiny requests: the disk's IOPS bound dominates
        reqs = [
            IORequest(rank=r % 64, file_id=r % 1000, nbytes=4096) for r in range(10000)
        ]
        assert bb.makespan(list(reqs)) < disk.makespan(list(reqs)) / 5
