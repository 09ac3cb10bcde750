"""Tests for ClusterSpec / NodeSpec / MemoryTracker / presets."""

import pytest

from repro.cluster import (
    ClusterSpec,
    MemoryTracker,
    NodeSpec,
    burst_buffer_cori,
    cori_haswell,
    laptop,
)
from repro.errors import ConfigError, OutOfMemoryError


class TestNodeSpec:
    def test_defaults(self):
        node = NodeSpec()
        assert node.cores == 32
        assert node.memory == 128 * 2**30

    def test_create_parses_memory(self):
        node = NodeSpec.create(16, "64GB")
        assert node.memory == 64 * 2**30

    def test_invalid(self):
        with pytest.raises(ConfigError):
            NodeSpec(cores=0)
        with pytest.raises(ConfigError):
            NodeSpec(memory=0)


class TestClusterSpec:
    def test_rank_to_node_mapping(self):
        spec = ClusterSpec(nodes=4)
        assert spec.node_of_rank(0, ranks_per_node=16) == 0
        assert spec.node_of_rank(15, ranks_per_node=16) == 0
        assert spec.node_of_rank(16, ranks_per_node=16) == 1
        assert spec.same_node(0, 15, 16)
        assert not spec.same_node(15, 16, 16)

    def test_rank_overflow_rejected(self):
        spec = ClusterSpec(nodes=2)
        with pytest.raises(ConfigError):
            spec.node_of_rank(64, ranks_per_node=32)

    def test_with_nodes(self):
        small = cori_haswell(91)
        big = small.with_nodes(1456)
        assert big.nodes == 1456
        assert big.node == small.node
        assert big.name == small.name

    def test_invalid(self):
        with pytest.raises(ConfigError):
            ClusterSpec(nodes=0)


class TestPresets:
    def test_cori_shape(self):
        cori = cori_haswell()
        assert cori.nodes == 2880
        assert cori.node.cores == 32
        # Paper: 1456 nodes x 8 cores = 11648 used cores fit easily
        assert 1456 * cori.node.cores >= 11648

    def test_burst_buffer_has_higher_iops(self):
        def iops(spec):
            return spec.storage.ost_count / spec.storage.per_request_overhead

        assert iops(burst_buffer_cori()) > iops(cori_haswell())

    def test_laptop_is_small(self):
        spec = laptop()
        assert spec.nodes * spec.node.cores <= 8


class TestMemoryTracker:
    def test_allocate_and_free(self):
        mem = MemoryTracker(node_memory=1000, nodes=2)
        mem.allocate(0, 600, "block")
        assert mem.used(0) == 600
        assert mem.available(0) == 400
        mem.free(0, 100, "block")
        assert mem.used(0) == 500

    def test_oom_raised(self):
        mem = MemoryTracker(node_memory=1000, nodes=1)
        mem.allocate(0, 900)
        with pytest.raises(OutOfMemoryError) as exc:
            mem.allocate(0, 200)
        assert exc.value.node == 0

    def test_breakdown(self):
        mem = MemoryTracker(node_memory=1000, nodes=1)
        mem.allocate(0, 100, "data")
        mem.allocate(0, 200, "master")
        mem.allocate(0, 50, "master")
        assert mem.breakdown(0) == {"data": 100, "master": 250}

    def test_peak_node(self):
        mem = MemoryTracker(node_memory=1000, nodes=3)
        assert mem.peak_node() == (0, 0)
        mem.allocate(1, 700)
        mem.allocate(2, 300)
        assert mem.peak_node() == (1, 700)

    def test_over_free_rejected(self):
        mem = MemoryTracker(node_memory=1000, nodes=1)
        with pytest.raises(ConfigError):
            mem.free(0, 10)

    def test_bad_node_rejected(self):
        mem = MemoryTracker(node_memory=1000, nodes=1)
        with pytest.raises(ConfigError):
            mem.allocate(5, 10)

    def test_fig8_oom_scenario(self):
        """91 Cori nodes, 16 ranks/node, pure MPI: the 1.9 TB input plus
        per-rank working copies (float64 intermediates + FFT scratch, ~6x
        the float32 input block) plus a 16x-duplicated master channel
        exceeds 128 GB/node; one rank/node (HAEE) threads over one channel
        at a time and fits."""
        cori = cori_haswell(91)
        data_per_node = int(1.9 * 2**40) // 91
        # master channel: one channel x 2 days of samples, float64 working set
        master = 30000 * 60 * 24 * 2 * 8
        mpi = MemoryTracker(cori.node.memory, 1)
        with pytest.raises(OutOfMemoryError):
            mpi.allocate(0, data_per_node, "input")
            mpi.allocate(0, 16 * master, "master-copies")
            mpi.allocate(0, 6 * data_per_node, "working")
        haee = MemoryTracker(cori.node.memory, 1)
        haee.allocate(0, data_per_node, "input")
        haee.allocate(0, master, "master")
        haee.allocate(0, 16 * 6 * master, "thread-working")
        assert haee.available(0) > 0
