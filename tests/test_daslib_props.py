"""Property-based tests (hypothesis) for DasLib invariants."""

import tracemalloc

import numpy as np
import scipy.signal as sps
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.daslib import (
    abscorr,
    butter,
    decimate,
    decimate_chunk,
    decimation_bank,
    design_resample_filter,
    detrend,
    filtfilt,
    get_window,
    lfilter,
    moving_average,
    next_fast_len,
    resample,
    resample_halo,
    taper,
    upfirdn,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def series(min_size=2, max_size=200):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_size, max_size),
        elements=finite_floats,
    )


def robust_norm(v):
    """L2 norm as abscorr measures it: peak-rescaled, so it does not
    underflow for denormal-magnitude windows the way ``sum(v**2)`` does."""
    peak = float(np.max(np.abs(v)))
    return peak * float(np.linalg.norm(v / peak)) if peak > 0 else 0.0


class TestAbscorrProps:
    @settings(max_examples=100, deadline=None)
    @given(series(min_size=4))
    def test_self_correlation_is_one_or_zero(self, x):
        value = abscorr(x, x)
        if robust_norm(x) > 1e-290:  # above the dead-window epsilon
            assert abs(value - 1.0) < 1e-9
        else:
            assert value == 0.0

    @settings(max_examples=100, deadline=None)
    @given(series(min_size=4), st.floats(0.01, 100), st.floats(0.01, 100))
    def test_scale_invariance(self, x, a, b):
        y = np.roll(x, 1)
        # scaling only commutes while every window stays clear of the
        # dead-window cutoff (1e-290): a scale factor can legitimately
        # push a barely-live window into silence
        assume(
            min(robust_norm(v) for v in (x, y, a * x, b * y)) > 1e-280
            or max(robust_norm(v) for v in (x, y, a * x, b * y)) == 0.0
        )
        v1 = abscorr(x, y)
        v2 = abscorr(a * x, b * y)
        assert abs(v1 - v2) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(series(min_size=4))
    def test_symmetry(self, x):
        y = x[::-1].copy()
        assert abs(abscorr(x, y) - abscorr(y, x)) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(series(min_size=4))
    def test_bounded(self, x):
        y = np.roll(x, 2)
        assert 0.0 <= abscorr(x, y) <= 1.0 + 1e-9


class TestDetrendProps:
    @settings(max_examples=80, deadline=None)
    @given(series(min_size=3))
    def test_idempotent(self, x):
        once = detrend(x)
        twice = detrend(once)
        scale = max(1.0, np.abs(x).max())
        np.testing.assert_allclose(once, twice, atol=1e-7 * scale)

    @settings(max_examples=80, deadline=None)
    @given(series(min_size=3), st.floats(-100, 100), st.floats(-100, 100))
    def test_invariant_to_added_line(self, x, slope, intercept):
        t = np.arange(len(x), dtype=np.float64)
        scale = max(1.0, np.abs(x).max(), abs(slope) * len(x), abs(intercept))
        np.testing.assert_allclose(
            detrend(x + slope * t + intercept), detrend(x), atol=1e-7 * scale
        )

    @settings(max_examples=80, deadline=None)
    @given(series(min_size=3))
    def test_output_zero_mean(self, x):
        out = detrend(x)
        scale = max(1.0, np.abs(x).max())
        assert abs(out.mean()) < 1e-7 * scale


class TestFilterProps:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6),
        st.floats(0.05, 0.9),
        st.integers(50, 300),
        st.integers(0, 2**31 - 1),
    )
    def test_designed_filters_are_stable(self, order, wn, n, seed):
        b, a = butter(order, wn)
        assert np.all(np.abs(np.roots(a)) < 1.0 + 1e-9)
        rng = np.random.default_rng(seed)
        y = lfilter(b, a, rng.normal(size=n), engine="numpy")
        assert np.all(np.isfinite(y))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.floats(0.1, 0.8), st.integers(0, 2**31 - 1))
    def test_lfilter_linearity(self, order, wn, seed):
        b, a = butter(order, wn)
        rng = np.random.default_rng(seed)
        x1 = rng.normal(size=100)
        x2 = rng.normal(size=100)
        lhs = lfilter(b, a, 2.0 * x1 + 3.0 * x2, engine="numpy")
        rhs = 2.0 * lfilter(b, a, x1, engine="numpy") + 3.0 * lfilter(
            b, a, x2, engine="numpy"
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.floats(0.1, 0.7), st.integers(0, 2**31 - 1))
    def test_numpy_engine_matches_scipy(self, order, wn, seed):
        b, a = butter(order, wn)
        x = np.random.default_rng(seed).normal(size=128)
        np.testing.assert_allclose(
            lfilter(b, a, x, engine="numpy"), sps.lfilter(b, a, x), atol=1e-9
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.floats(0.15, 0.6), st.integers(0, 2**31 - 1))
    def test_filtfilt_matches_scipy_everywhere(self, order, wn, seed):
        """Oracle property: our filtfilt (padding, zi, both passes) equals
        scipy's over random filters and signals, edges included."""
        b, a = butter(order, wn)
        x = np.random.default_rng(seed).normal(size=200)
        ours = filtfilt(b, a, x, engine="numpy")
        scipys = sps.filtfilt(b, a, x)
        scale = max(1.0, np.abs(x).max())
        np.testing.assert_allclose(ours, scipys, atol=1e-8 * scale)


class TestResampleProps:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(30, 400),
        st.integers(0, 2**31 - 1),
    )
    def test_output_length_convention(self, p, q, n, seed):
        x = np.random.default_rng(seed).normal(size=n)
        out = resample(x, p, q)
        assert len(out) == -(-n * p // q)  # ceil(n*p/q)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(30, 200), st.integers(0, 2**31 - 1))
    def test_identity_rate(self, n, seed):
        x = np.random.default_rng(seed).normal(size=n)
        np.testing.assert_allclose(resample(x, 3, 3), x, atol=1e-12)


def fft_decimate_reference(x, q, abs_start, full_convolve=upfirdn):
    """The definition the polyphase kernel must reproduce: the full-rate
    convolution with the anti-aliasing FIR, delay-compensated, sampled at
    the absolute indices ``j * q``."""
    taps = design_resample_filter(1, q)
    half = (len(taps) - 1) // 2
    x = np.asarray(x, dtype=np.float64)
    full = full_convolve(taps, x)
    phase = (-abs_start) % q
    return full[..., half : half + x.shape[-1]][..., phase::q]


def scipy_convolve(taps, x):
    """The full convolution by ``sps.upfirdn``, with the shorter operand as
    its filter: convolution commutes, and a filter much longer than the
    signal costs seconds per call (``20 q + 1`` taps against ``n`` down to 1)."""
    if x.shape[-1] >= len(taps):
        return sps.upfirdn(taps, x, axis=-1)
    rows = [sps.upfirdn(row, taps) for row in x.reshape(-1, x.shape[-1])]
    return np.stack(rows).reshape(x.shape[:-1] + (-1,))


def chunk_signal(seed, n, two_d, as_float32):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, n) if two_d else n) * rng.choice([1e-3, 1.0, 1e4])
    return x.astype(np.float32) if as_float32 else x


class TestDecimateKernelProps:
    @settings(max_examples=120, deadline=None)
    @given(
        q=st.integers(2, 1100),
        n=st.integers(1, 3000),
        abs_start=st.integers(0, 10**6),
        two_d=st.booleans(),
        as_float32=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_full_rate_references(
        self, q, n, abs_start, two_d, as_float32, seed
    ):
        # n < 20 * q + 1 (a record shorter than the filter) is the common
        # case in this sweep
        x = chunk_signal(seed, n, two_d, as_float32)
        got = decimate_chunk(x, q, abs_start)
        assert got.dtype == np.float64
        atol = 1e-12 * float(np.abs(x).max())
        ours = fft_decimate_reference(x, q, abs_start)
        assert got.shape == ours.shape
        np.testing.assert_allclose(got, ours, rtol=0, atol=atol)
        # scipy's direct-form polyphase upfirdn: an oracle sharing no code
        scipys = fft_decimate_reference(x, q, abs_start, scipy_convolve)
        np.testing.assert_allclose(got, scipys, rtol=0, atol=atol)

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.integers(2, 70),
        n=st.integers(200, 4000),
        chunk=st.integers(40, 900),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_overlapping_chunks_stitch_to_whole_record(self, q, n, chunk, seed):
        x = np.random.default_rng(seed).normal(size=(2, n))
        whole = decimate_chunk(x, q, 0)
        halo = resample_halo(q)
        pieces = []
        for a in range(0, n, chunk):
            b = min(n, a + chunk)
            lo, hi = max(0, a - halo), min(n, b + halo)
            out = decimate_chunk(x[:, lo:hi], q, lo)
            first = -(-lo // q)  # absolute index of out[..., 0]
            pieces.append(out[:, -(-a // q) - first : -(-b // q) - first])
        np.testing.assert_allclose(
            np.concatenate(pieces, axis=-1), whole, rtol=0, atol=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(2, 300),
        n=st.integers(1, 2000),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_resample_and_decimate_are_the_kernel(self, q, n, seed):
        x = np.random.default_rng(seed).normal(size=(2, n))
        kernel = decimate_chunk(x, q, 0)
        np.testing.assert_array_equal(resample(x, 1, q), kernel)
        np.testing.assert_array_equal(resample(x, 3, 3 * q), kernel)
        np.testing.assert_array_equal(decimate(x, q), kernel)
        np.testing.assert_array_equal(resample(x.T, 1, q, axis=0), kernel.T)

    @settings(max_examples=80, deadline=None)
    @given(
        q=st.integers(2, 200),
        n=st.integers(1, 3000),
        abs_start=st.integers(0, 10**5),
        holes=st.lists(
            st.tuples(st.floats(0, 1), st.sampled_from([np.nan, np.inf, -np.inf])),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_non_finite_sample_poisons_exactly_its_support(
        self, q, n, abs_start, holes, seed
    ):
        clean = np.random.default_rng(seed).normal(size=(2, n))
        dirty = clean.copy()
        positions = sorted({min(n - 1, int(frac * n)) for frac, _ in holes})
        for pos, (_, value) in zip(positions, holes):
            dirty[1, pos] = value
        got = decimate_chunk(dirty, q, abs_start)
        expected = decimate_chunk(clean, q, abs_start)
        centres = np.arange(-(-abs_start // q), -(-(abs_start + n) // q)) * q
        poisoned = np.zeros(expected.shape, dtype=bool)
        for pos in positions:
            poisoned[1] |= np.abs(centres - (abs_start + pos)) <= 10 * q
        np.testing.assert_array_equal(np.isnan(got), poisoned)
        np.testing.assert_array_equal(got[~poisoned], expected[~poisoned])

    def test_one_lost_stretch_does_not_mask_the_record(self):
        # the FFT kernel turned this whole row into NaN
        x = np.random.default_rng(0).normal(size=20000)
        x[9000:9010] = np.nan
        out = decimate_chunk(x, 4, 0)
        # centres within 10 * q of a lost sample: 8960, 8964, ..., 9048
        assert np.flatnonzero(np.isnan(out)).tolist() == list(range(2240, 2263))

    def test_scratch_is_bounded_by_the_block_not_the_chunk(self):
        x = np.random.default_rng(0).normal(size=(4, 1 << 20))  # 32 MiB
        for q in (4, 1024):
            decimation_bank(q)  # the cached bank is not per-call scratch
            tracemalloc.start()
            try:
                out = decimate_chunk(x, q, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # scratch block + its product, 1 MiB each at most
            assert peak - out.nbytes < 3 << 20, (q, peak)

    def test_filters_and_banks_are_memoised_read_only(self):
        # however the defaults are spelled, one design per key
        assert decimation_bank(1024) is decimation_bank(1024, half_width=10)
        taps = design_resample_filter(1, 1024)
        assert taps is design_resample_filter(1, 1024, 10, beta=5.0)
        assert not taps.flags.writeable
        assert not decimation_bank(1024).matrix.flags.writeable


class TestWindowProps:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["hann", "hamming", "blackman"]), st.integers(2, 200))
    def test_symmetry(self, name, n):
        w = get_window(name, n)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 100), st.floats(0.0, 0.5))
    def test_taper_never_amplifies(self, n, fraction):
        x = np.ones(n)
        y = taper(x, fraction)
        assert np.all(y <= 1.0 + 1e-12)
        assert np.all(y >= -1e-12)


class TestMovingAverageProps:
    @settings(max_examples=60, deadline=None)
    @given(series(min_size=1, max_size=100), st.integers(1, 20))
    def test_preserves_constant(self, x, width):
        c = np.full_like(x, 7.5)
        np.testing.assert_allclose(moving_average(c, width), 7.5)

    @settings(max_examples=60, deadline=None)
    @given(series(min_size=1, max_size=100), st.integers(1, 20))
    def test_bounded_by_extremes(self, x, width):
        out = moving_average(x, width)
        eps = 1e-9 * max(1.0, np.abs(x).max())  # cumsum rounding at scale
        assert np.all(out <= x.max() + eps)
        assert np.all(out >= x.min() - eps)


class TestNextFastLenProps:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**6))
    def test_result_is_5_smooth_and_geq(self, n):
        m = next_fast_len(n)
        assert m >= n
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        assert k == 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 46656))
    def test_fixed_point_on_smooth_numbers(self, n):
        m = next_fast_len(n)
        assert next_fast_len(m) == m
