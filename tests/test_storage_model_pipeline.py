"""Remaining coverage: the storage cost-model helpers."""

import pytest

from repro.cluster import cori_haswell
from repro.storage.model import (
    ReadCost,
    files_per_rank,
    model_collective_per_file,
    model_communication_avoiding,
    model_rca_read,
    model_search,
)


class TestReadCost:
    def test_total_is_read_plus_comm(self):
        cost = ReadCost(read_time=2.0, comm_time=0.5, n_requests=10)
        assert cost.total == pytest.approx(2.5)

    def test_scaling_in_file_count(self):
        cluster = cori_haswell(16)
        small = model_collective_per_file(cluster, 16, 100, 10**6)
        large = model_collective_per_file(cluster, 16, 400, 10**6)
        assert large.total == pytest.approx(4 * small.total, rel=1e-6)

    def test_commavoid_improves_with_ranks(self):
        cluster = cori_haswell(256)
        few = model_communication_avoiding(cluster, 16, 512, 10**7)
        many = model_communication_avoiding(cluster, 128, 512, 10**7)
        assert many.total < few.total

    def test_commavoid_floor_is_ost_bound(self):
        """Beyond a point, more ranks cannot beat the OST service floor."""
        cluster = cori_haswell(2880)
        t1 = model_communication_avoiding(cluster, 720, 2880, 10**8).total
        t2 = model_communication_avoiding(cluster, 2880, 2880, 10**8).total
        assert t2 <= t1
        assert t2 > 0.5 * t1  # diminishing returns

    def test_rca_read_scales_with_stripes_not_ranks(self):
        cluster = cori_haswell(512)
        t_small_p = model_rca_read(cluster, 16, 10**12).total
        t_large_p = model_rca_read(cluster, 512, 10**12).total
        # stripe-bound: adding ranks barely helps
        assert t_large_p > 0.5 * t_small_p

    def test_model_search_linear(self):
        cluster = cori_haswell()
        assert model_search(cluster, 2000) == pytest.approx(
            2 * model_search(cluster, 1000)
        )

    def test_files_per_rank_sums(self):
        for n, p in ((2880, 90), (7, 3), (5, 8)):
            assert sum(files_per_rank(n, p, r) for r in range(p)) == n
