"""Tests for scatterv/gatherv and communicator split."""

import pytest

from repro.errors import MPIError
from repro.simmpi import run_spmd


class TestScattervGatherv:
    def test_uneven_scatter(self):
        counts = [3, 1, 2]

        def fn(comm):
            data = list(range(6)) if comm.rank == 0 else None
            return comm.scatterv(data, counts, root=0)

        result = run_spmd(fn, 3)
        assert result.results == [[0, 1, 2], [3], [4, 5]]

    def test_zero_count_rank(self):
        counts = [2, 0, 1]

        def fn(comm):
            data = ["a", "b", "c"] if comm.rank == 0 else None
            return comm.scatterv(data, counts, root=0)

        result = run_spmd(fn, 3)
        assert result.results == [["a", "b"], [], ["c"]]

    def test_scatterv_length_mismatch(self):
        def fn(comm):
            comm.scatterv([1, 2], [2, 2], root=0)

        with pytest.raises(MPIError):
            run_spmd(fn, 2)

    def test_scatterv_bad_counts(self):
        def fn(comm):
            comm.scatterv([1], [1], root=0)  # wrong number of counts

        with pytest.raises(MPIError):
            run_spmd(fn, 2)

    def test_gatherv_concatenates_in_rank_order(self):
        def fn(comm):
            mine = list(range(comm.rank + 1))
            return comm.gatherv(mine, root=0)

        result = run_spmd(fn, 3)
        assert result.results[0] == [0, 0, 1, 0, 1, 2]
        assert result.results[1] is None

    def test_scatterv_gatherv_roundtrip(self):
        counts = [1, 4, 2, 3]
        payload = list(range(10))

        def fn(comm):
            mine = comm.scatterv(payload if comm.rank == 0 else None, counts, root=0)
            return comm.gatherv(mine, root=0)

        result = run_spmd(fn, 4)
        assert result.results[0] == payload


class TestSplit:
    def test_split_into_two_groups(self):
        def fn(comm):
            color = comm.rank % 2
            sub = comm.split(color)
            total = sub.allreduce(comm.rank)
            return (color, sub.rank, sub.size, total)

        result = run_spmd(fn, 6)
        evens = [r for r in result.results if r[0] == 0]
        odds = [r for r in result.results if r[0] == 1]
        assert all(r[2] == 3 for r in evens + odds)
        assert {r[1] for r in evens} == {0, 1, 2}
        assert all(r[3] == 0 + 2 + 4 for r in evens)
        assert all(r[3] == 1 + 3 + 5 for r in odds)

    def test_split_single_color(self):
        def fn(comm):
            sub = comm.split(0)
            return (sub.rank, sub.size)

        result = run_spmd(fn, 4)
        assert result.results == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_split_key_reorders(self):
        def fn(comm):
            # reverse ordering via key
            sub = comm.split(0, key=comm.size - comm.rank)
            return sub.rank

        result = run_spmd(fn, 4)
        assert result.results == [3, 2, 1, 0]

    def test_split_point_to_point_within_group(self):
        def fn(comm):
            sub = comm.split(comm.rank // 2)
            if sub.rank == 0:
                sub.send(f"from-{comm.rank}", dest=1)
                return None
            return sub.recv(source=0)

        result = run_spmd(fn, 4)
        assert result.results[1] == "from-0"
        assert result.results[3] == "from-2"

    def test_negative_color_rejected(self):
        def fn(comm):
            comm.split(-1)

        with pytest.raises(MPIError):
            run_spmd(fn, 2)

    def test_per_node_subcommunicators(self):
        """The hybrid-engine pattern: one sub-communicator per node."""
        from repro.cluster import cori_haswell

        def fn(comm):
            node_comm = comm.split(comm.node)
            return (comm.node, node_comm.size, node_comm.allreduce(1))

        result = run_spmd(fn, 8, cluster=cori_haswell(2), ranks_per_node=4)
        assert all(size == 4 and total == 4 for (_, size, total) in result.results)
        assert {node for node, _, _ in result.results} == {0, 1}
