"""Tests for simmpi point-to-point messaging and the fabric."""

import time

import numpy as np
import pytest

from repro.errors import MPIError
from repro.simmpi import run_spmd
from repro.simmpi.fabric import ANY_SOURCE, ANY_TAG, Fabric, Message


class TestFabric:
    def test_post_and_match(self):
        fabric = Fabric(2)
        fabric.post(1, Message(source=0, tag=5, payload="x", nbytes=1, send_time=0.0))
        msg = fabric.match(1, 0, 5)
        assert msg.payload == "x"

    def test_match_wildcards(self):
        fabric = Fabric(2)
        fabric.post(0, Message(source=1, tag=7, payload="a", nbytes=1, send_time=0.0))
        msg = fabric.match(0, ANY_SOURCE, ANY_TAG)
        assert msg.payload == "a"

    def test_fifo_per_pair(self):
        fabric = Fabric(2)
        for i in range(3):
            fabric.post(
                0, Message(source=1, tag=0, payload=i, nbytes=1, send_time=0.0)
            )
        got = [fabric.match(0, 1, 0).payload for _ in range(3)]
        assert got == [0, 1, 2]

    def test_tag_selective(self):
        fabric = Fabric(2)
        fabric.post(0, Message(source=1, tag=1, payload="one", nbytes=1, send_time=0.0))
        fabric.post(0, Message(source=1, tag=2, payload="two", nbytes=1, send_time=0.0))
        assert fabric.match(0, 1, 2).payload == "two"
        assert fabric.match(0, 1, 1).payload == "one"

    def test_timeout(self):
        fabric = Fabric(1)
        with pytest.raises(MPIError, match="timeout"):
            fabric.match(0, ANY_SOURCE, ANY_TAG, timeout=0.05)

    def test_bad_dest(self):
        fabric = Fabric(2)
        with pytest.raises(MPIError):
            fabric.post(5, Message(source=0, tag=0, payload=None, nbytes=0, send_time=0.0))

    def test_abort_wakes_matcher(self):
        fabric = Fabric(2)
        fabric.abort(RuntimeError("boom"))
        with pytest.raises(MPIError, match="aborted"):
            fabric.match(0, ANY_SOURCE, ANY_TAG, timeout=5.0)

    def test_invalid_size(self):
        with pytest.raises(MPIError):
            Fabric(0)


class TestPointToPoint:
    def test_ping(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        result = run_spmd(fn, 2)
        assert result.results[1] == {"a": 7}

    def test_numpy_send_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(100, dtype=np.float64), dest=1)
                return None
            return comm.recv(source=0)

        result = run_spmd(fn, 2)
        np.testing.assert_array_equal(result.results[1], np.arange(100.0))

    def test_ring(self):
        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            if comm.rank == 0:
                comm.send(comm.rank, dest=right)
                total = comm.recv(source=left)
            else:
                total = comm.recv(source=left)
                comm.send(total + comm.rank, dest=right)
                total = None
            return total

        result = run_spmd(fn, 5)
        assert result.results[0] == sum(range(5))

    def test_send_to_self_rejected(self):
        def fn(comm):
            comm.send(1, dest=comm.rank)

        with pytest.raises(MPIError):
            run_spmd(fn, 2)

    def test_happens_before_clock(self):
        """A receiver's clock never shows the message arriving before the
        sender finished sending it."""

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(2**20), dest=1)
                return comm.clock.now
            comm.recv(source=0)
            return comm.clock.now

        result = run_spmd(fn, 2)
        send_done, recv_done = result.results
        assert recv_done >= send_done

    def test_recv_timeout_is_not_reset_by_other_traffic(self):
        """The timeout bounds the whole wait even while messages between
        other ranks keep waking the fabric."""

        def fn(comm):
            if comm.rank == 0:
                t0 = time.monotonic()
                with pytest.raises(MPIError, match="timeout"):
                    comm.recv(source=1, tag=99)
                return time.monotonic() - t0
            if comm.rank == 2:
                t_end = time.monotonic() + 2.0
                while time.monotonic() < t_end:
                    comm.send(None, dest=1)
                    time.sleep(0.02)
            return None

        waited = run_spmd(fn, 3, recv_timeout=0.2).results[0]
        assert 0.2 <= waited < 1.0

    def test_trace_records_ops(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(b"xyz", dest=1)
            else:
                comm.recv(source=0)

        result = run_spmd(fn, 2)
        assert result.tracers[0].schedule() == [("send", 3, 1)]
        assert result.tracers[1].schedule() == [("recv", 3, 0)]


class TestExecutor:
    def test_single_rank_fast_path(self):
        result = run_spmd(lambda comm: comm.rank * 10, 1)
        assert result.results == [0]

    def test_results_in_rank_order(self):
        result = run_spmd(lambda comm: comm.rank, 6)
        assert result.results == list(range(6))

    def test_exception_propagates_with_rank(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("bad rank")
            comm.allgather(None)

        with pytest.raises(MPIError, match="rank 2.*ValueError"):
            run_spmd(fn, 4)

    def test_failure_does_not_deadlock_blocked_recv(self):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("dies before sending")
            comm.recv(source=0)

        with pytest.raises(MPIError, match="RuntimeError"):
            run_spmd(fn, 2)

    def test_args_passed_through(self):
        def fn(comm, base, scale=1):
            return base + comm.rank * scale

        result = run_spmd(fn, 3, args=(100,), kwargs={"scale": 2})
        assert result.results == [100, 102, 104]

    def test_invalid_size(self):
        with pytest.raises(MPIError):
            run_spmd(lambda comm: None, 0)

    def test_makespan_positive_after_comm(self):
        def fn(comm):
            comm.allgather(None)

        result = run_spmd(fn, 4)
        assert result.makespan > 0.0

    def test_node_mapping_with_cluster(self):
        from repro.cluster import cori_haswell

        def fn(comm):
            return comm.node

        result = run_spmd(fn, 8, cluster=cori_haswell(4), ranks_per_node=2)
        assert result.results == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_ranks_group_by_node(self):
        """Four ranks per node on two nodes: the ranks ``same_node``
        accepts are exactly those ``allgather`` reports on the caller's
        node."""
        from repro.cluster import cori_haswell

        def fn(comm):
            nodes = comm.allgather(comm.node)
            mates = [r for r in range(comm.size) if comm.same_node(r)]
            return nodes, mates

        result = run_spmd(fn, 8, cluster=cori_haswell(2), ranks_per_node=4)
        for rank, (nodes, mates) in enumerate(result.results):
            assert nodes == [0, 0, 0, 0, 1, 1, 1, 1]
            assert mates == [r for r in range(8) if nodes[r] == nodes[rank]]
