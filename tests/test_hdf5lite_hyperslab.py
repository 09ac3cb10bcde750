"""Tests for hdf5lite hyperslab selection algebra."""

import numpy as np
import pytest

from repro.errors import SelectionError
from repro.hdf5lite.hyperslab import (
    Hyperslab,
    normalize_selection,
    plan_spans,
    selection_shape,
)


def write_spans(hs, shape):
    """The requests a hyperslab write makes: the planner's spans at
    ``max_gap=0``, as ``(element_offset, element_count)``."""
    plan = plan_spans(hs, shape, 0)
    length = plan.span_len(plan.block)
    return [(off, length) for off in plan.offsets.tolist()]


def runs_to_array(shape, hs, source):
    """Materialise a hyperslab via its write spans against a flat array."""
    flat = source.reshape(-1)
    parts = [flat[off : off + n] for off, n in write_spans(hs, shape)]
    return np.concatenate(parts).reshape(hs.count) if parts else np.empty(hs.count)


class TestHyperslab:
    def test_full(self):
        hs = Hyperslab.full((3, 4))
        assert hs.start == (0, 0)
        assert hs.count == (3, 4)
        assert hs.size == 12

    def test_end(self):
        hs = Hyperslab((1, 2), (3, 2), (2, 3))
        assert hs.end() == (1 + 2 * 2 + 1, 2 + 1 * 3 + 1)

    def test_within(self):
        assert Hyperslab((0,), (5,), (1,)).within((5,))
        assert not Hyperslab((1,), (5,), (1,)).within((5,))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(SelectionError):
            Hyperslab((0,), (1, 2), (1,))

    def test_negative_rejected(self):
        with pytest.raises(SelectionError):
            Hyperslab((-1,), (1,), (1,))
        with pytest.raises(SelectionError):
            Hyperslab((0,), (1,), (0,))

    def test_indices(self):
        hs = Hyperslab((2,), (3,), (4,))
        assert list(hs.indices(0)) == [2, 6, 10]


class TestNormalizeSelection:
    def test_single_int(self):
        hs, squeeze = normalize_selection(3, (10,))
        assert hs == Hyperslab((3,), (1,), (1,))
        assert squeeze == (0,)

    def test_negative_int(self):
        hs, _ = normalize_selection(-1, (10,))
        assert hs.start == (9,)

    def test_out_of_bounds_int(self):
        with pytest.raises(SelectionError):
            normalize_selection(10, (10,))

    def test_full_slice(self):
        hs, squeeze = normalize_selection(slice(None), (7,))
        assert hs == Hyperslab.full((7,))
        assert squeeze == ()

    def test_strided_slice(self):
        hs, _ = normalize_selection(slice(1, 9, 3), (10,))
        assert hs == Hyperslab((1,), (3,), (3,))

    def test_ellipsis(self):
        hs, squeeze = normalize_selection((Ellipsis, 2), (4, 5, 6))
        assert hs.start == (0, 0, 2)
        assert hs.count == (4, 5, 1)
        assert squeeze == (2,)

    def test_double_ellipsis_rejected(self):
        with pytest.raises(SelectionError):
            normalize_selection((Ellipsis, Ellipsis), (4, 5))

    def test_too_many_indices(self):
        with pytest.raises(SelectionError):
            normalize_selection((1, 2, 3), (4, 5))

    def test_missing_dims_filled(self):
        hs, _ = normalize_selection(2, (4, 5))
        assert hs.count == (1, 5)

    def test_bool_rejected(self):
        with pytest.raises(SelectionError):
            normalize_selection(True, (4,))

    def test_negative_step_rejected(self):
        with pytest.raises(SelectionError):
            normalize_selection(slice(None, None, -1), (4,))

    def test_selection_shape_squeezes(self):
        hs, squeeze = normalize_selection((2, slice(0, 4)), (5, 6))
        assert selection_shape(hs, squeeze) == (4,)

    @pytest.mark.parametrize(
        "sel",
        [
            (slice(1, 4), slice(2, 8, 2)),
            (0, slice(None)),
            slice(None),
            (Ellipsis,),
            (slice(3, 3),),
        ],
    )
    def test_matches_numpy(self, sel):
        arr = np.arange(6 * 9).reshape(6, 9)
        hs, squeeze = normalize_selection(sel, arr.shape)
        got = runs_to_array(arr.shape, hs, arr).reshape(selection_shape(hs, squeeze))
        expected = arr[sel]
        np.testing.assert_array_equal(got, expected)


class TestContiguousRuns:
    """``plan_spans(hs, shape, 0)``: the gap-free runs a write issues."""

    def test_full_array_single_run(self):
        hs = Hyperslab.full((8, 8))
        runs = write_spans(hs, (8, 8))
        assert runs == [(0, 64)]

    def test_row_subset_coalesces_adjacent_rows(self):
        # Selecting full-width rows 2..4 of an 8-col array is one run.
        hs = Hyperslab((2, 0), (3, 8), (1, 1))
        runs = write_spans(hs, (8, 8))
        assert runs == [(16, 24)]

    def test_column_subset_one_run_per_row(self):
        hs = Hyperslab((0, 2), (4, 3), (1, 1))
        runs = write_spans(hs, (4, 8))
        assert runs == [(2, 3), (10, 3), (18, 3), (26, 3)]

    def test_strided_inner_dim_per_element(self):
        hs = Hyperslab((0,), (3,), (4,))
        runs = write_spans(hs, (12,))
        assert runs == [(0, 1), (4, 1), (8, 1)]

    def test_empty_selection(self):
        hs = Hyperslab((0,), (0,), (1,))
        assert write_spans(hs, (5,)) == []

    def test_out_of_bounds_rejected(self):
        with pytest.raises(SelectionError):
            write_spans(Hyperslab((0,), (6,), (1,)), (5,))

    def test_3d_selection(self):
        arr = np.arange(3 * 4 * 5).reshape(3, 4, 5)
        hs = Hyperslab((1, 1, 1), (2, 2, 3), (1, 1, 1))
        got = runs_to_array(arr.shape, hs, arr)
        np.testing.assert_array_equal(got, arr[1:3, 1:3, 1:4])

    def test_runs_cover_selection_size(self):
        hs = Hyperslab((1, 2), (5, 3), (2, 2))
        total = sum(n for _, n in write_spans(hs, (12, 10)))
        assert total == hs.size
