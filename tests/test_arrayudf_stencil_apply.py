"""Tests for Stencil, partitioning, Apply, and ApplyMT (Algorithm 1)."""

import numpy as np
import pytest

from repro.arrayudf import Stencil, apply, apply_mt, partition_1d, partition_rows
from repro.errors import UDFError


@pytest.fixture
def block():
    return np.arange(6 * 10, dtype=np.float64).reshape(6, 10)


class TestStencil:
    def test_center_value(self, block):
        s = Stencil(block, 2, 3)
        assert s.value() == block[2, 3]
        assert s(0, 0) == block[2, 3]

    def test_offsets(self, block):
        s = Stencil(block, 2, 3)
        assert s(1, 0) == block[3, 3]
        assert s(-1, 2) == block[1, 5]

    def test_paper_moving_average(self, block):
        """The paper's 3-point moving average example."""
        s = Stencil(block, 2, 3)
        avg = (s(0, -1) + s(0, 0) + s(0, 1)) / 3
        assert avg == pytest.approx(block[2, 2:5].mean())

    def test_window_1d_row(self, block):
        s = Stencil(block, 2, 5)
        np.testing.assert_array_equal(s.window(0, (-2, 2)), block[2, 3:8])

    def test_window_across_channels(self, block):
        """Algorithm 2's access: windows at neighbouring channels."""
        s = Stencil(block, 2, 5)
        np.testing.assert_array_equal(s.window(1, (-2, 2)), block[3, 3:8])
        np.testing.assert_array_equal(s.window(-1, (-2, 2)), block[1, 3:8])

    def test_window_2d(self, block):
        s = Stencil(block, 2, 5)
        np.testing.assert_array_equal(s.window((-1, 1), (0, 2)), block[1:4, 5:8])

    def test_window_is_view(self, block):
        s = Stencil(block, 2, 5)
        w = s.window((-1, 1), (0, 2))
        assert w.base is not None

    def test_out_of_range_error_policy(self, block):
        s = Stencil(block, 0, 0)
        with pytest.raises(UDFError, match="halo"):
            s(-1, 0)
        with pytest.raises(UDFError, match="halo"):
            s.window((-2, 0), 0)

    def test_clamp_policy(self, block):
        s = Stencil(block, 0, 0, boundary="clamp")
        assert s(-1, 0) == block[0, 0]
        np.testing.assert_array_equal(s.window((-1, 0), 0), [block[0, 0], block[0, 0]])

    def test_zero_policy(self, block):
        s = Stencil(block, 0, 0, boundary="zero")
        assert s(-1, 0) == 0.0
        np.testing.assert_array_equal(s.window((-1, 0), 0), [0.0, block[0, 0]])

    def test_empty_window_rejected(self, block):
        with pytest.raises(UDFError):
            Stencil(block, 2, 2).window((1, -1), 0)

    def test_non_2d_rejected(self):
        with pytest.raises(UDFError):
            Stencil(np.zeros(5), 0, 0)

    def test_unknown_boundary_rejected(self, block):
        with pytest.raises(UDFError):
            Stencil(block, 0, 0, boundary="wrap")


class TestPartition:
    def test_partition_1d_even(self):
        assert partition_1d(12, 4, 1) == (3, 6)

    def test_partition_1d_uneven_covers(self):
        parts = [partition_1d(10, 3, r) for r in range(3)]
        assert parts[0][0] == 0 and parts[-1][1] == 10
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))

    def test_partition_rows_with_halo(self):
        part = partition_rows((100, 50), 4, 1, halo=3)
        assert (part.core_row_lo, part.core_row_hi) == (25, 50)
        assert (part.read_row_lo, part.read_row_hi) == (22, 53)
        assert part.core_offset == 3

    def test_halo_clipped_at_edges(self):
        part = partition_rows((100, 50), 4, 0, halo=5)
        assert part.read_row_lo == 0
        assert part.core_offset == 0
        last = partition_rows((100, 50), 4, 3, halo=5)
        assert last.read_row_hi == 100

    def test_col_range(self):
        part = partition_rows((10, 50), 2, 0, col_range=(10, 30))
        assert part.cols == 20

    def test_read_nbytes(self):
        part = partition_rows((8, 10), 2, 0)
        assert part.read_nbytes(4) == 4 * 10 * 4

    def test_invalid(self):
        with pytest.raises(UDFError):
            partition_1d(10, 0, 0)
        with pytest.raises(UDFError):
            partition_rows((10, 10), 2, 0, halo=-1)
        with pytest.raises(UDFError):
            partition_rows((10, 10), 2, 0, col_range=(5, 50))


class TestApply:
    def test_identity_udf(self, block):
        out = apply(block, lambda s: s.value())
        np.testing.assert_array_equal(out, block)

    def test_moving_average_udf(self, block):
        out = apply(
            block,
            lambda s: (s(0, -1) + s(0, 0) + s(0, 1)) / 3,
            core_cols=(1, 9),
        )
        expected = (block[:, 0:8] + block[:, 1:9] + block[:, 2:10]) / 3
        np.testing.assert_allclose(out, expected)

    def test_core_rows_only(self, block):
        out = apply(block, lambda s: s.value(), core_rows=(2, 4))
        np.testing.assert_array_equal(out, block[2:4])

    def test_strides(self, block):
        out = apply(block, lambda s: s.value(), row_stride=2, col_stride=5)
        np.testing.assert_array_equal(out, block[::2, ::5])

    def test_invalid_core(self, block):
        with pytest.raises(UDFError):
            apply(block, lambda s: 0.0, core_rows=(0, 99))
        with pytest.raises(UDFError):
            apply(block, lambda s: 0.0, row_stride=0)


class TestStaticSchedule:
    """``partition_1d`` as the threads' OpenMP ``schedule(static)``."""

    def test_covers_all_items(self):
        chunks = [partition_1d(100, 7, h) for h in range(7)]
        assert chunks[0][0] == 0 and chunks[-1][1] == 100
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))

    def test_balanced(self):
        sizes = [hi - lo for lo, hi in (partition_1d(100, 7, h) for h in range(7))]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid(self):
        with pytest.raises(UDFError):
            partition_1d(10, 4, 4)  # thread index past the last thread


class TestApplyMT:
    @pytest.mark.parametrize("threads", [1, 2, 4, 7])
    def test_matches_sequential_apply(self, block, threads):
        udf = lambda s: (s(0, -1) + s(0, 0) + s(0, 1)) / 3  # noqa: E731
        seq = apply(block, udf, core_cols=(1, 9))
        par = apply_mt(block, udf, threads=threads, core_cols=(1, 9))
        np.testing.assert_allclose(par, seq)

    def test_result_order_preserved(self, block):
        """The prefix merge must put thread results at the right offsets."""
        out = apply_mt(block, lambda s: s.value(), threads=5)
        np.testing.assert_array_equal(out, block)

    def test_more_threads_than_cells(self):
        tiny = np.ones((1, 3))
        out = apply_mt(tiny, lambda s: s.value() * 2, threads=16)
        np.testing.assert_array_equal(out, 2 * tiny)

    def test_strided(self, block):
        out = apply_mt(block, lambda s: s.value(), threads=3, col_stride=3)
        np.testing.assert_array_equal(out, block[:, ::3])

    def test_udf_exception_propagates(self, block):
        def bad(s):
            if s.row == 3 and s.col == 5:
                raise ValueError("poison cell")
            return 0.0

        with pytest.raises(UDFError, match="poison cell"):
            apply_mt(block, bad, threads=4)

    def test_udf_exception_does_not_hang_other_threads(self, block):
        def bad(s):
            raise RuntimeError("all cells fail")

        with pytest.raises(UDFError):
            apply_mt(block, bad, threads=8)

    def test_invalid_threads(self, block):
        with pytest.raises(UDFError):
            apply_mt(block, lambda s: 0.0, threads=0)

    def test_shared_block_no_copy(self):
        """All threads see the same block object (the hybrid engine's
        memory story: data shared, not duplicated)."""
        seen_ids = []
        block = np.arange(12, dtype=np.float64).reshape(3, 4)

        def udf(s):
            seen_ids.append(id(s.block))
            return 0.0

        apply_mt(block, udf, threads=3)
        assert len(set(seen_ids)) == 1
