"""Tests for the interconnect cost model."""

import math

import pytest

from repro.cluster.network import NetworkModel
from repro.errors import ConfigError


@pytest.fixture
def net():
    return NetworkModel(
        latency=1e-6, bandwidth=1e9, intra_latency=1e-7, intra_bandwidth=1e10
    )


class TestP2P:
    def test_latency_only(self, net):
        assert net.p2p_time(0) == pytest.approx(1e-6)

    def test_alpha_beta(self, net):
        assert net.p2p_time(10**9) == pytest.approx(1e-6 + 1.0)

    def test_intra_node_faster(self, net):
        assert net.p2p_time(2**20, same_node=True) < net.p2p_time(2**20)

    def test_negative_size_rejected(self, net):
        with pytest.raises(ConfigError):
            net.p2p_time(-1)

    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigError):
            NetworkModel(bandwidth=0)
        with pytest.raises(ConfigError):
            NetworkModel(latency=-1)


class TestCollectives:
    def test_bcast_pipelined_form(self, net):
        """Latency scales with tree depth; the (chunk-pipelined) payload
        bandwidth term is paid once."""
        n = 2**20
        t8 = net.bcast_time(n, 8)
        assert t8 == pytest.approx(3 * net.latency + n / net.bandwidth)

    def test_bcast_single_rank_free(self, net):
        assert net.bcast_time(2**20, 1) == 0.0

    def test_bcast_nonpower_of_two(self, net):
        n = 1024
        assert net.bcast_time(n, 90) == pytest.approx(
            math.ceil(math.log2(90)) * net.latency + n / net.bandwidth
        )

    def test_bcast_grows_with_p(self, net):
        n = 2**20
        assert net.bcast_time(n, 1024) > net.bcast_time(n, 16)

    def test_allreduce_is_reduce_plus_bcast(self, net):
        """A tree reduce has a broadcast's rounds; the broadcast follows."""
        n = 4096
        assert net.allreduce_time(n, 16) == pytest.approx(
            2 * net.bcast_time(n, 16)
        )

    def test_gather_scales_with_total_bytes(self, net):
        assert net.gather_time(1000, 64) > net.gather_time(1000, 8)
        assert net.gather_time(1000, 1) == 0.0

    def test_allgather_ring(self, net):
        n = 2048
        assert net.allgather_time(n, 10) == pytest.approx(9 * net.p2p_time(n))

    def test_alltoall_rounds(self, net):
        n = 2048
        assert net.alltoall_time(n, 10) == pytest.approx(9 * net.p2p_time(n))
        assert net.alltoall_time(n, 1) == 0.0

    def test_invalid_size_rejected(self, net):
        with pytest.raises(ConfigError):
            net.bcast_time(100, 0)

    def test_key_paper_inequality(self, net):
        """The core claim behind communication-avoiding I/O: for n files
        over p ranks, n broadcasts of (chunk) data cost much more than one
        all-to-all exchange of the same volume."""
        p = 90
        n_files = 720
        file_bytes = 700 * 2**20 // 100  # scaled file
        per_rank_share = file_bytes // p
        collective = n_files * net.bcast_time(file_bytes, p)
        # each rank reads n/p files then one alltoallv of shares
        avoiding = net.alltoallv_time(per_rank_share * (n_files // p), p)
        assert collective > 10 * avoiding
