"""Property-based tests (hypothesis) for hyperslab algebra.

Invariants:

* the runs a write issues — ``plan_spans(hs, shape, 0)``, one gap-free
  span per planned offset — materialise what numpy slicing does for every
  valid basic selection;
* those runs are disjoint, ordered, and their total length equals the
  selection size;
* the span planner (``plan_spans`` + ``gather_spans``) materialises what
  numpy slicing does at every gap, with requests that stay in bounds,
  ascend, bridge no hole wider than the gap, and number between the
  selection's runs once holes up to the gap are bridged (computed with
  numpy) and its innermost-dimension runs;
* every dataset read path — uncached, cached, CRC-verified, raw chunked —
  returns the same bytes for strided 2-D selections, and the verified
  path still refuses a flipped bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptDataError
from repro.hdf5lite import CacheConfig, File
from repro.hdf5lite.hyperslab import (
    Hyperslab,
    gather_spans,
    normalize_selection,
    plan_spans,
    selection_shape,
)


@st.composite
def shapes(draw, max_ndim=4, max_dim=12):
    ndim = draw(st.integers(1, max_ndim))
    return tuple(draw(st.integers(1, max_dim)) for _ in range(ndim))


@st.composite
def shape_and_selection(draw):
    shape = draw(shapes())
    sel = []
    for dim in shape:
        kind = draw(st.sampled_from(["int", "slice", "full"]))
        if kind == "int":
            sel.append(draw(st.integers(-dim, dim - 1)))
        elif kind == "full":
            sel.append(slice(None))
        else:
            start = draw(st.one_of(st.none(), st.integers(-dim - 2, dim + 2)))
            stop = draw(st.one_of(st.none(), st.integers(-dim - 2, dim + 2)))
            step = draw(st.integers(1, 4))
            sel.append(slice(start, stop, step))
    return shape, tuple(sel)


def write_runs(hs, shape):
    """``(element_offset, element_count)`` of each request a write makes."""
    plan = plan_spans(hs, shape, 0)
    length = plan.span_len(plan.block)
    return [(off, length) for off in plan.offsets.tolist()]


def selected_offsets(hs, shape):
    """The C-order offsets of the selected elements, ascending."""
    grid = np.ix_(*(np.asarray(hs.indices(d)) for d in range(hs.ndim)))
    return np.ravel_multi_index(np.broadcast_arrays(*grid), shape).reshape(-1)


@settings(max_examples=150, deadline=None)
@given(shape_and_selection())
def test_runs_match_numpy(case):
    shape, sel = case
    arr = np.arange(int(np.prod(shape))).reshape(shape)
    hs, squeeze = normalize_selection(sel, shape)
    flat = arr.reshape(-1)
    parts = [flat[off : off + n] for off, n in write_runs(hs, shape)]
    got = (
        np.concatenate(parts) if parts else np.empty(0, dtype=arr.dtype)
    ).reshape(selection_shape(hs, squeeze))
    np.testing.assert_array_equal(got, arr[sel])


@settings(max_examples=150, deadline=None)
@given(shape_and_selection())
def test_runs_disjoint_ordered_and_sized(case):
    shape, sel = case
    hs, _ = normalize_selection(sel, shape)
    runs = write_runs(hs, shape)
    total = 0
    prev_end = -1
    seen = set()
    for off, n in runs:
        assert n > 0
        assert off > prev_end or off not in seen
        for k in range(off, off + n):
            assert k not in seen
            seen.add(k)
        prev_end = off + n - 1
        total += n
    assert total == hs.size


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_full_selection_is_single_run(data):
    shape = data.draw(shapes())
    runs = write_runs(Hyperslab.full(shape), shape)
    assert runs == [(0, int(np.prod(shape)))]


# ---------------------------------------------------------------------------
# the span planner against numpy
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    shape_and_selection(),
    st.sampled_from([0, 1, 2, 5, 40, 10_000]),
    st.sampled_from([None, 1, 4, 30, 500]),
)
def test_planned_spans_match_runs_and_numpy(case, max_gap, max_span):
    shape, sel = case
    arr = np.arange(int(np.prod(shape)), dtype=np.int32).reshape(shape)
    flat = arr.reshape(-1)
    hs, squeeze = normalize_selection(sel, shape)

    requests = []
    source = memoryview(flat.view(np.uint8))

    def fetch(byte_offset, dest):
        assert byte_offset % 4 == 0 and len(dest) % 4 == 0
        assert 0 <= byte_offset and byte_offset + len(dest) <= len(source)
        requests.append((byte_offset // 4, len(dest) // 4))
        dest[:] = source[byte_offset : byte_offset + len(dest)]

    plan = plan_spans(hs, shape, max_gap, max_span)
    out = np.full(hs.count, -1, dtype=np.int32)
    gather_spans(plan, out, fetch)

    np.testing.assert_array_equal(
        out.reshape(selection_shape(hs, squeeze)), arr[sel]
    )

    # requests: ascending and disjoint, between the optimum — the selected
    # offsets split wherever the hole between neighbours exceeds the gap
    # (the optimum may also merge a row's last element with the next row's
    # first when they happen to be adjacent; the planner does not) — and
    # one per innermost-dimension run
    assert all(
        a_off + a_n <= b_off
        for (a_off, a_n), (b_off, _) in zip(requests, requests[1:])
    )
    offsets = selected_offsets(hs, shape) if hs.size else np.empty(0, np.int64)
    optimum = int(np.count_nonzero(np.diff(offsets) > max_gap + 1)) + bool(hs.size)
    inner_run = hs.count[-1] if hs.stride[-1] == 1 else 1
    assert optimum <= len(requests) <= hs.size // max(inner_run, 1)
    # every request starts and ends on a selected element, bridges no hole
    # wider than the gap, and one that bridges any fits the scratch bound
    selected = np.zeros(flat.size + 1, dtype=bool)
    selected[offsets] = True
    for off, n in requests:
        inside = selected[off : off + n]
        assert inside[0] and inside[-1]
        holes = np.diff(np.flatnonzero(inside)) - 1
        assert holes.size == 0 or holes.max() <= max_gap
        if max_span is not None and not inside.all():
            assert n <= max(max_span, 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_full_selection_is_single_span(data):
    shape = data.draw(shapes())
    plan = plan_spans(Hyperslab.full(shape), shape, 0, 4)
    assert plan.offsets.tolist() == [0]
    assert plan.span_len(plan.block) == int(np.prod(shape))


# ---------------------------------------------------------------------------
# every dataset read path returns the same bytes
# ---------------------------------------------------------------------------

ROWS, COLS = 12, 1536  # 6 KiB float32 rows: row holes straddle the 4 KiB gap


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """One array stored four ways; ``open_all`` yields the datasets."""
    root = tmp_path_factory.mktemp("layouts")
    data = (
        np.random.default_rng(3).normal(size=(ROWS, COLS)).astype(np.float32)
    )
    kinds = {
        "plain": {},
        "verified": {"checksum": True, "checksum_block": 1024},
        "chunked": {"chunks": (5, 500)},
    }
    for name, kwargs in kinds.items():
        with File(str(root / f"{name}.h5"), "w") as f:
            f.create_dataset("d", data=data, **kwargs)
    return root, data


@st.composite
def strided_2d(draw):
    sel = []
    for dim in (ROWS, COLS):
        start = draw(st.integers(0, dim - 1))
        stop = draw(st.integers(start + 1, dim))
        step = draw(st.sampled_from([1, 2, 3, 8, 64, 1100]))
        sel.append(slice(start, stop, step))
    return tuple(sel)


@settings(max_examples=60, deadline=None)
@given(strided_2d())
def test_read_paths_agree_on_strided_selections(layouts, sel):
    root, data = layouts
    expected = data[sel]
    opened = [
        ("plain", {}),
        ("plain", {"cache": CacheConfig()}),
        ("verified", {}),
        ("verified", {"cache": CacheConfig(page_size=4096)}),
        ("chunked", {}),
        ("chunked", {"cache": CacheConfig()}),
    ]
    for name, kwargs in opened:
        with File(str(root / f"{name}.h5"), "r", **kwargs) as f:
            np.testing.assert_array_equal(f.dataset("d")[sel], expected)


def test_verified_strided_read_refuses_a_flipped_block(tmp_path):
    data = np.random.default_rng(4).normal(size=(ROWS, COLS)).astype(np.float32)
    path = str(tmp_path / "v.h5")
    with File(path, "w") as f:
        f.create_dataset("d", data=data, checksum=True, checksum_block=1024)
    with File(path, "r") as f:
        base = int(f.dataset("d")._meta["offset"])
    victim = base + (3 * COLS + 8 * 10) * 4  # row 3, a selected column
    with open(path, "r+b") as fh:
        fh.seek(victim)
        byte = fh.read(1)[0]
        fh.seek(victim)
        fh.write(bytes([byte ^ 0x10]))
    with File(path, "r") as f:
        # rows the flip is not in still read clean...
        np.testing.assert_array_equal(
            f.dataset("d")[5:, :400:8], data[5:, :400:8]
        )
        # ...the strided read that lands on the block does not
        with pytest.raises(CorruptDataError, match="crc32"):
            f.dataset("d")[:, :400:8]
    with File(path, "r", cache=CacheConfig()) as f:
        with pytest.raises(CorruptDataError, match="crc32"):
            f.dataset("d")[:, :400:8]
