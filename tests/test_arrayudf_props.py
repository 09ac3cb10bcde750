"""Property-based tests for ArrayUDF: ApplyMT must equal sequential
Apply for arbitrary blocks, strides, core regions, and thread counts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.arrayudf import apply, apply_mt, partition_1d, partition_rows


@st.composite
def blocks(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 16))
    data = draw(
        hnp.arrays(
            dtype=np.float64,
            shape=(rows, cols),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    return data


UDFS = {
    "identity": lambda s: s.value(),
    "neighbour-sum-clamped": lambda s: s(0, -1) + s(0, 1),
    "row-col-mix": lambda s: s.row * 1000.0 + s.col,
}


@settings(max_examples=60, deadline=None)
@given(blocks(), st.integers(1, 9), st.sampled_from(sorted(UDFS)), st.data())
def test_apply_mt_equals_apply(block, threads, udf_name, data):
    udf = UDFS[udf_name]
    rows, cols = block.shape
    row_stride = data.draw(st.integers(1, max(1, rows)))
    col_stride = data.draw(st.integers(1, max(1, cols)))
    r_lo = data.draw(st.integers(0, rows - 1))
    r_hi = data.draw(st.integers(r_lo + 1, rows))
    seq = apply(
        block,
        udf,
        core_rows=(r_lo, r_hi),
        row_stride=row_stride,
        col_stride=col_stride,
        boundary="clamp",
    )
    par = apply_mt(
        block,
        udf,
        threads=threads,
        core_rows=(r_lo, r_hi),
        row_stride=row_stride,
        col_stride=col_stride,
        boundary="clamp",
    )
    np.testing.assert_array_equal(seq, par)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 500), st.integers(1, 32))
def test_static_schedule_partitions(n_items, n_threads):
    chunks = [partition_1d(n_items, n_threads, h) for h in range(n_threads)]
    assert chunks[0][0] == 0
    assert chunks[-1][1] == n_items
    for (a, b), (c, d) in zip(chunks, chunks[1:]):
        assert b == c
    sizes = [hi - lo for lo, hi in chunks]
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 50),
    st.integers(1, 20),
    st.integers(0, 8),
)
def test_partition_rows_invariants(rows, cols, size, halo):
    parts = [partition_rows((rows, cols), size, r, halo=halo) for r in range(size)]
    # Cores tile the rows exactly.
    assert parts[0].core_row_lo == 0
    assert parts[-1].core_row_hi == rows
    for a, b in zip(parts, parts[1:]):
        assert a.core_row_hi == b.core_row_lo
    for part in parts:
        # The read region contains the core plus at most halo on each side,
        # clipped to the array.
        assert part.read_row_lo == max(0, part.core_row_lo - halo)
        assert part.read_row_hi == min(rows, part.core_row_hi + halo)
        assert 0 <= part.core_offset <= halo
        assert part.core_offset + part.core_rows <= part.read_rows
