"""Tests for simmpi collectives: semantics and virtual-clock charging."""

import threading
import time

import numpy as np
import pytest

from repro.errors import MPIError
from repro.simmpi import run_spmd


class TestBcast:
    def test_object_broadcast(self):
        def fn(comm):
            data = {"key": [1, 2, 3]} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        result = run_spmd(fn, 4)
        assert all(r == {"key": [1, 2, 3]} for r in result.results)

    def test_nonzero_root(self):
        def fn(comm):
            return comm.bcast(comm.rank if comm.rank == 2 else None, root=2)

        result = run_spmd(fn, 4)
        assert result.results == [2, 2, 2, 2]

    def test_array_broadcast(self):
        def fn(comm):
            data = np.arange(50.0) if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        result = run_spmd(fn, 3)
        for r in result.results:
            np.testing.assert_array_equal(r, np.arange(50.0))

    def test_bad_root(self):
        with pytest.raises(MPIError):
            run_spmd(lambda comm: comm.bcast(1, root=9), 2)

    def test_cost_scales_with_size(self):
        def fn(comm, n):
            comm.bcast(np.zeros(n) if comm.rank == 0 else None, root=0)
            return comm.clock.phases.get("comm", 0.0)

        small = run_spmd(fn, 4, args=(10,)).results[0]
        large = run_spmd(fn, 4, args=(10**6,)).results[0]
        assert large > small


class TestScatterGather:
    def test_gather(self):
        def fn(comm):
            return comm.gather(comm.rank * 2, root=1)

        result = run_spmd(fn, 4)
        assert result.results[1] == [0, 2, 4, 6]
        assert result.results[0] is None

    def test_allgather(self):
        result = run_spmd(lambda comm: comm.allgather(comm.rank), 5)
        assert all(r == [0, 1, 2, 3, 4] for r in result.results)

    def test_allgather_arrays(self):
        def fn(comm):
            parts = comm.allgather(np.full(3, comm.rank, dtype=np.float64))
            return np.concatenate(parts)

        result = run_spmd(fn, 3)
        expected = np.repeat([0.0, 1.0, 2.0], 3)
        for r in result.results:
            np.testing.assert_array_equal(r, expected)


class TestAlltoall:
    def test_transpose_semantics(self):
        def fn(comm):
            out = comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])
            return out

        result = run_spmd(fn, 3)
        assert result.results[1] == ["0->1", "1->1", "2->1"]

    def test_array_exchange(self):
        """The communication-avoiding exchange: rank r holds file r's data
        and sends each rank its slice; afterwards each rank holds its slice
        of every file."""

        def fn(comm):
            p = comm.size
            file_data = np.arange(p * 4, dtype=np.float64) + 100 * comm.rank
            slices = [file_data[r * 4 : (r + 1) * 4] for r in range(p)]
            received = comm.alltoall(slices)
            return np.concatenate(received)

        result = run_spmd(fn, 4)
        for rank, out in enumerate(result.results):
            expected = np.concatenate(
                [np.arange(rank * 4, rank * 4 + 4) + 100 * src for src in range(4)]
            )
            np.testing.assert_array_equal(out, expected)

    def test_wrong_length_rejected(self):
        with pytest.raises(MPIError):
            run_spmd(lambda comm: comm.alltoall([1]), 3)


class TestReduce:
    def test_allreduce_sum(self):
        result = run_spmd(lambda comm: comm.allreduce(comm.rank + 1), 4)
        assert result.results == [10, 10, 10, 10]

    def test_allreduce_arrays(self):
        def fn(comm):
            return comm.allreduce(np.full(4, float(comm.rank)))

        result = run_spmd(fn, 3)
        np.testing.assert_array_equal(result.results[0], np.full(4, 3.0))


class TestVirtualTime:
    def test_alltoall_cheaper_than_per_file_bcasts(self):
        """Paper Fig. 5 argument at the communicator level: exchanging a
        volume V once via alltoall must cost far less virtual time than
        broadcasting V in n_files pieces."""
        n_files = 32
        piece = 2**16

        def bcast_version(comm):
            for _ in range(n_files):
                comm.bcast(np.zeros(piece, dtype=np.uint8) if comm.rank == 0 else None)
            return comm.clock.phases.get("comm", 0.0)

        def alltoall_version(comm):
            shard = np.zeros(piece * n_files // comm.size, dtype=np.uint8)
            comm.alltoall([shard[: len(shard) // comm.size]] * comm.size)
            return comm.clock.phases.get("comm", 0.0)

        t_bcast = run_spmd(bcast_version, 8).results[0]
        t_a2a = run_spmd(alltoall_version, 8).results[0]
        assert t_bcast > 5 * t_a2a

    def test_clocks_aligned_after_a_collective(self):
        def fn(comm):
            # Rank-dependent work before the collective:
            comm.clock.advance(float(comm.rank), phase="compute")
            comm.allgather(None)
            return comm.clock.now

        result = run_spmd(fn, 4)
        # Everyone leaves the collective at the same virtual time.
        assert len({round(t, 12) for t in result.results}) == 1
        assert result.results[0] >= 3.0  # the slowest rank's entry time

    def test_charge_io_and_compute(self):
        def fn(comm):
            comm.charge_io(0.5, op="read", nbytes=1000)
            comm.charge_compute(0.25)
            return comm.clock.phases

        result = run_spmd(fn, 2)
        assert result.results[0]["io"] == pytest.approx(0.5)
        assert result.results[0]["compute"] == pytest.approx(0.25)
        assert result.phase_totals()["io"] == pytest.approx(0.5)

    def test_makespan_is_max_clock(self):
        def fn(comm):
            comm.clock.advance(1.0 + comm.rank, phase="compute")

        result = run_spmd(fn, 3)
        assert result.makespan == pytest.approx(3.0)


class TestSkippedCollective:
    """A rank that skips a collective fails the run with an ``MPIError``
    after ``recv_timeout``, as a receive with no sender does; it never
    hangs.  The run goes on a daemon thread so a hang fails the test
    instead of stalling the suite."""

    def _outcome(self, fn, size=2, recv_timeout=0.5):
        outcome = {}

        def target():
            t0 = time.monotonic()
            try:
                run_spmd(fn, size, recv_timeout=recv_timeout)
            except MPIError as exc:
                outcome["error"] = exc
            outcome["waited"] = time.monotonic() - t0

        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(10)
        assert not runner.is_alive(), "the run hangs on a skipped collective"
        return outcome

    def test_bcast_one_rank_skips(self):
        outcome = self._outcome(
            lambda comm: comm.bcast(1) if comm.rank == 0 else None
        )
        assert "bcast" in str(outcome["error"])
        assert "0.5 s" in str(outcome["error"])
        assert 0.5 <= outcome["waited"] < 5.0

    def test_gather_on_root_only(self):
        outcome = self._outcome(
            lambda comm: comm.gather(comm.rank) if comm.rank == 0 else None,
            size=3,
        )
        assert "gather" in str(outcome["error"])

    def test_a_later_collective_is_bounded_too(self):
        """Every rank enters the first collective, one skips the next."""

        def fn(comm):
            comm.allreduce(1)
            if comm.rank != 1:
                comm.allreduce(2)

        outcome = self._outcome(fn, size=3)
        assert "allreduce" in str(outcome["error"])

    def test_a_slow_rank_within_the_timeout_is_waited_for(self):
        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.2)
            return comm.allreduce(comm.rank)

        result = run_spmd(fn, 3, recv_timeout=2.0)
        assert result.results == [3, 3, 3]
