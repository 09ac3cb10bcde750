"""Property-based tests for the simulated MPI runtime.

Collective semantics are validated against single-process numpy
reference computations over random payloads, rank counts, and roots.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import run_spmd

sizes = st.integers(1, 6)
payload_lens = st.integers(1, 16)


@settings(max_examples=25, deadline=None)
@given(sizes, st.integers(0, 2**31 - 1))
def test_allreduce_sum_matches_numpy(size, seed):
    rng = np.random.default_rng(seed)
    contributions = rng.normal(size=(size, 5))

    def fn(comm):
        return comm.allreduce(contributions[comm.rank])

    result = run_spmd(fn, size)
    expected = contributions.sum(axis=0)
    for out in result.results:
        np.testing.assert_allclose(out, expected, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(sizes, st.data())
def test_bcast_from_every_root(size, data):
    root = data.draw(st.integers(0, size - 1))
    payload = data.draw(st.lists(st.integers(-100, 100), max_size=5))

    def fn(comm):
        return comm.bcast(payload if comm.rank == root else None, root=root)

    result = run_spmd(fn, size)
    assert all(r == payload for r in result.results)


@settings(max_examples=25, deadline=None)
@given(sizes, st.integers(0, 2**31 - 1))
def test_scatter_gather_roundtrip(size, seed):
    rng = np.random.default_rng(seed)
    items = [float(v) for v in rng.normal(size=size)]

    def fn(comm):
        # Each rank takes its own item by index, and gather brings them back.
        return comm.gather(items[comm.rank], root=0)

    result = run_spmd(fn, size)
    assert result.results[0] == items
    assert all(out is None for out in result.results[1:])


@settings(max_examples=25, deadline=None)
@given(sizes, st.integers(0, 2**31 - 1))
def test_alltoall_is_transpose(size, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 1000, size=(size, size))

    def fn(comm):
        return comm.alltoall([int(v) for v in matrix[comm.rank]])

    result = run_spmd(fn, size)
    for rank, row in enumerate(result.results):
        np.testing.assert_array_equal(row, matrix[:, rank])


@settings(max_examples=25, deadline=None)
@given(sizes)
def test_allgather_order(size):
    def fn(comm):
        return comm.allgather(comm.rank * 10)

    result = run_spmd(fn, size)
    expected = [r * 10 for r in range(size)]
    assert all(out == expected for out in result.results)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_ring_pass_accumulates(size, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 100, size=size)

    def fn(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        if comm.rank == 0:
            comm.send(int(values[0]), dest=right)
            return comm.recv(source=left)
        acc = comm.recv(source=left)
        comm.send(acc + int(values[comm.rank]), dest=right)
        return None

    result = run_spmd(fn, size)
    assert result.results[0] == int(values.sum())


@settings(max_examples=20, deadline=None)
@given(sizes, st.integers(0, 2**31 - 1))
def test_clocks_monotone_and_consistent(size, seed):
    """Virtual clocks never run backwards, and after a collective all
    ranks agree on the time."""
    rng = np.random.default_rng(seed)
    delays = rng.uniform(0, 1, size=size)

    def fn(comm):
        t0 = comm.clock.now
        comm.clock.advance(float(delays[comm.rank]), phase="compute")
        comm.allreduce(0)
        t1 = comm.clock.now
        assert t1 >= t0
        return t1

    result = run_spmd(fn, size)
    assert len({round(t, 9) for t in result.results}) == 1
    assert result.results[0] >= float(delays.max())
