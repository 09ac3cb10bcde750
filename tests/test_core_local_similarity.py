"""Tests for the local-similarity case study (Algorithm 2)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrayudf import apply
from repro.core import local_similarity as kernel_module
from repro.core.local_similarity import (
    LocalSimilarityConfig,
    local_similarity_block,
    local_similarity_udf,
    similarity_at,
)
from repro.errors import ConfigError
from repro.synthetic import earthquake_signal, vehicle_signal
from repro.synthetic.noise import ambient_noise


class TestConfig:
    def test_derived_sizes(self):
        cfg = LocalSimilarityConfig(half_window=10, channel_offset=2, half_lag=3, stride=5)
        assert cfg.window_len == 21
        assert cfg.time_halo == 13
        assert cfg.channel_halo == 2

    def test_centers_inside_valid_range(self):
        cfg = LocalSimilarityConfig(half_window=10, half_lag=3, stride=7)
        centers = cfg.centers(100)
        assert centers[0] == 13
        assert centers[-1] + cfg.time_halo <= 100

    def test_centers_empty_for_short_series(self):
        cfg = LocalSimilarityConfig(half_window=30, half_lag=10)
        assert len(cfg.centers(50)) == 0

    def test_invalid(self):
        with pytest.raises(ConfigError):
            LocalSimilarityConfig(half_window=0)
        with pytest.raises(ConfigError):
            LocalSimilarityConfig(channel_offset=0)
        with pytest.raises(ConfigError):
            LocalSimilarityConfig(stride=0)


class TestKernelEquivalence:
    """The vectorised kernel must equal the literal Algorithm 2 UDF."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_block_matches_udf(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(8, 120))
        cfg = LocalSimilarityConfig(half_window=5, channel_offset=1, half_lag=2, stride=9)

        simi, centers = local_similarity_block(data, cfg)

        udf = local_similarity_udf(cfg)
        reference = apply(
            data,
            udf,
            core_rows=(cfg.channel_offset, data.shape[0] - cfg.channel_offset),
            core_cols=(int(centers[0]), int(centers[-1]) + 1),
            col_stride=cfg.stride,
        )
        np.testing.assert_allclose(simi, reference, atol=1e-12)

    def test_block_matches_udf_wider_offsets(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(10, 150))
        cfg = LocalSimilarityConfig(half_window=7, channel_offset=3, half_lag=4, stride=11)
        simi, centers = local_similarity_block(data, cfg)
        udf = local_similarity_udf(cfg)
        reference = apply(
            data,
            udf,
            core_rows=(3, 7),
            core_cols=(int(centers[0]), int(centers[-1]) + 1),
            col_stride=cfg.stride,
        )
        np.testing.assert_allclose(simi, reference, atol=1e-12)


@st.composite
def _cases(draw, max_centers=6, min_rows=1):
    """A config over the issue's grid (K in [1, 3], L in [0, 6], M in
    [1, 30], stride 1 / below / above the window) with a block just large
    enough for a few centres and evaluated rows."""
    M = draw(st.integers(1, 30))
    cfg = LocalSimilarityConfig(
        half_window=M,
        channel_offset=draw(st.integers(1, 3)),
        half_lag=draw(st.integers(0, 6)),
        stride=draw(
            st.one_of(
                st.just(1),
                st.integers(2, 2 * M),
                st.integers(2 * M + 2, 2 * M + 12),
            )
        ),
    )
    n_centers = draw(st.integers(1, max_centers))
    n_samples = (
        2 * cfg.time_halo + 1
        + (n_centers - 1) * cfg.stride
        + draw(st.integers(0, cfg.stride - 1))
    )
    n_rows = 2 * cfg.channel_offset + draw(st.integers(min_rows, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return cfg, rng.normal(size=(n_rows, n_samples))


def _starts(cfg, data):
    return cfg.centers(data.shape[1]) - cfg.half_window


class TestKernelProperties:
    """``similarity_at`` against the Algorithm 2 UDF, and the invariances
    that make streamed, threaded and incremental maps bit-identical."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=_cases(),
        form=st.sampled_from(["float64", "float32", "strided", "fortran", "readonly"]),
    )
    def test_matches_udf_for_any_input_form(self, case, form):
        cfg, data = case
        if form == "float32":
            data = data.astype(np.float32)
        elif form == "strided":
            wide = np.zeros((data.shape[0], 2 * data.shape[1]))
            wide[:, ::2] = data
            data = wide[:, ::2]
        elif form == "fortran":
            data = np.asfortranarray(data)
        elif form == "readonly":
            data.setflags(write=False)
        simi, centers = local_similarity_block(data, cfg)
        K = cfg.channel_offset
        reference = apply(
            np.asarray(data, dtype=np.float64),
            local_similarity_udf(cfg),
            core_rows=(K, data.shape[0] - K),
            core_cols=(int(centers[0]), int(centers[-1]) + 1),
            col_stride=cfg.stride,
        )
        np.testing.assert_allclose(simi, reference, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(case=_cases(max_centers=12), data_=st.data())
    def test_any_split_of_starts_is_bit_identical(self, case, data_):
        cfg, data = case
        starts = _starts(cfg, data)
        whole = similarity_at(data, cfg, starts)
        cuts = sorted(
            data_.draw(st.lists(st.integers(0, len(starts)), max_size=4))
        )
        bounds = [0, *cuts, len(starts)]
        pieces = [
            similarity_at(data, cfg, starts[a:b]) for a, b in zip(bounds, bounds[1:])
        ]
        np.testing.assert_array_equal(np.concatenate(pieces, axis=1), whole)
        # ...and so is any internal strip size, down to one start a strip.
        strip_bytes = data_.draw(st.sampled_from([1, 4096, 65536]))
        with mock.patch.object(kernel_module, "STRIP_BYTES", strip_bytes):
            np.testing.assert_array_equal(similarity_at(data, cfg, starts), whole)

    @settings(max_examples=40, deadline=None)
    @given(case=_cases(min_rows=2), data_=st.data())
    def test_any_channel_partition_is_bit_identical(self, case, data_):
        cfg, data = case
        K = cfg.channel_offset
        starts = _starts(cfg, data)
        whole = similarity_at(data, cfg, starts)
        lo, hi = K, data.shape[0] - K
        cut = data_.draw(st.integers(lo, hi))
        parts = [
            similarity_at(data, cfg, starts, channel_range=(lo, cut)),
            similarity_at(data, cfg, starts, channel_range=(cut, hi)),
        ]
        np.testing.assert_array_equal(np.concatenate(parts, axis=0), whole)
        # the row block a thread partition would be handed
        np.testing.assert_array_equal(
            similarity_at(data[cut - K :], cfg, starts), whole[cut - K :]
        )

    @settings(max_examples=40, deadline=None)
    @given(
        case=_cases(),
        left=st.integers(0, 40),
        right=st.integers(0, 40),
        seed=st.integers(0, 2**31),
    )
    def test_any_enclosing_block_is_bit_identical(self, case, left, right, seed):
        cfg, data = case
        starts = _starts(cfg, data)
        pad = np.random.default_rng(seed).normal(
            size=(data.shape[0], left + right)
        )
        block = np.concatenate([pad[:, :left], data, pad[:, left:]], axis=1)
        np.testing.assert_array_equal(
            similarity_at(block, cfg, starts + left),
            similarity_at(data, cfg, starts),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        case=_cases(),
        poison=st.sampled_from([np.nan, np.inf, -np.inf, "silence"]),
        data_=st.data(),
    )
    def test_dead_windows_score_zero_and_touch_nothing_else(
        self, case, poison, data_
    ):
        """A window holding NaN/Inf, or with no energy at all, correlates 0
        with everything: never NaN, exactly 0 where it is the reference,
        and every cell none of whose windows hold the poison is untouched."""
        cfg, data = case
        K, L, w = cfg.channel_offset, cfg.half_lag, cfg.window_len
        starts = _starts(cfg, data)
        clean = similarity_at(data, cfg, starts)
        row = data_.draw(st.integers(0, data.shape[0] - 1))
        dirty = data.copy()
        if poison == "silence":
            hit = slice(0, data.shape[1])  # the whole channel goes dead
            dirty[row] = 0.0
        else:
            col = data_.draw(st.integers(0, data.shape[1] - 1))
            hit = slice(col, col + 1)
            dirty[row, col] = poison
        got = similarity_at(dirty, cfg, starts)
        assert np.isfinite(got).all()
        assert (got >= 0).all() and (got <= clean.max() + 1.0).all()
        for i, c in enumerate(range(K, data.shape[0] - K)):
            for j, s in enumerate(starts):
                ref_hit = c == row and s < hit.stop and hit.start < s + w
                lag_hit = abs(c - row) == K and (
                    s - L < hit.stop and hit.start < s + w + L
                )
                if ref_hit:
                    assert got[i, j] == 0.0
                elif not lag_hit:
                    assert got[i, j] == clean[i, j]
                else:
                    assert got[i, j] <= clean[i, j]

    def test_existing_validation_still_raised(self):
        cfg = LocalSimilarityConfig(half_window=5, half_lag=2, stride=4)
        data = np.zeros((6, 60))
        with pytest.raises(ConfigError, match="2-D"):
            similarity_at(np.zeros(60), cfg, [2])
        with pytest.raises(ConfigError, match="channel range"):
            similarity_at(data, cfg, [2], channel_range=(0, 4))
        with pytest.raises(ConfigError, match="channel range"):
            similarity_at(data, cfg, [2], channel_range=(2, 6))
        with pytest.raises(ConfigError, match="channel range"):
            similarity_at(data, cfg, [2], channel_range=(4, 3))
        with pytest.raises(ConfigError, match="outside block"):
            similarity_at(data, cfg, [1])  # start - L < 0
        with pytest.raises(ConfigError, match="outside block"):
            similarity_at(data, cfg, [2, 48])  # 48 + L + 11 > 60
        assert similarity_at(data, cfg, []).shape == (4, 0)
        assert similarity_at(data, cfg, [2], channel_range=(3, 3)).shape == (0, 1)

    def test_scratch_is_bounded_whatever_the_record_length(self):
        """Peak allocation beyond the returned map stays under a stated
        constant — 4 strips' worth — at one chunk and at a whole record."""
        cfg = LocalSimilarityConfig()
        bound = 4 * kernel_module.STRIP_BYTES
        peaks = []
        for n_samples in (12060, 90000):
            data = np.random.default_rng(8).normal(size=(32, n_samples))
            starts = _starts(cfg, data)
            tracemalloc.start()
            try:
                out = similarity_at(data, cfg, starts)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - out.nbytes)
        assert max(peaks) <= bound
        assert abs(peaks[1] - peaks[0]) <= kernel_module.STRIP_BYTES // 4


class TestProperties:
    def test_values_in_unit_interval(self):
        data = np.random.default_rng(3).normal(size=(8, 200))
        simi, _ = local_similarity_block(data, LocalSimilarityConfig(half_window=6, half_lag=2, stride=10))
        assert np.all(simi >= 0.0)
        assert np.all(simi <= 1.0 + 1e-12)

    def test_coherent_signal_scores_high(self):
        """A plane wave crossing all channels scores ~1; noise doesn't."""
        rng = np.random.default_rng(4)
        t = np.arange(400)
        coherent = np.tile(np.sin(2 * np.pi * t / 25.0), (6, 1))
        noise = rng.normal(size=(6, 400))
        cfg = LocalSimilarityConfig(half_window=20, half_lag=3, stride=40)
        simi_sig, _ = local_similarity_block(coherent + 0.05 * noise, cfg)
        simi_noise, _ = local_similarity_block(noise, cfg)
        assert simi_sig.mean() > 0.95
        assert simi_noise.mean() < 0.5

    def test_lag_search_recovers_moveout(self):
        """A wavefront with one-sample-per-channel moveout is matched once
        the lag search covers the shift."""
        n_ch, n_t = 8, 300
        base = np.sin(2 * np.pi * np.arange(n_t) / 30.0) * np.exp(
            -((np.arange(n_t) - 150) ** 2) / 800.0
        )
        data = np.stack([np.roll(base, 3 * c) for c in range(n_ch)])
        cfg_wide = LocalSimilarityConfig(half_window=15, half_lag=4, stride=30)
        cfg_narrow = LocalSimilarityConfig(half_window=15, half_lag=0, stride=30)
        wide, _ = local_similarity_block(data, cfg_wide)
        narrow, _ = local_similarity_block(data, cfg_narrow)
        assert wide.max() > narrow.max()

    def test_channel_range_argument(self):
        data = np.random.default_rng(5).normal(size=(10, 150))
        cfg = LocalSimilarityConfig(half_window=5, half_lag=1, stride=10)
        full, centers = local_similarity_block(data, cfg)
        partial, centers2 = local_similarity_block(data, cfg, channel_range=(3, 6))
        np.testing.assert_array_equal(centers, centers2)
        np.testing.assert_allclose(partial, full[2:5])

    def test_invalid_inputs(self):
        cfg = LocalSimilarityConfig()
        with pytest.raises(ConfigError):
            local_similarity_block(np.zeros(10), cfg)
        with pytest.raises(ConfigError):
            local_similarity_block(
                np.zeros((4, 200)), cfg, channel_range=(0, 4)
            )

    def test_short_series_empty_map(self):
        cfg = LocalSimilarityConfig(half_window=30, half_lag=10)
        simi, centers = local_similarity_block(np.zeros((4, 20)), cfg)
        assert simi.shape == (2, 0)
        assert len(centers) == 0


class TestOnSyntheticEvents:
    def test_earthquake_band_lights_up(self):
        rng = np.random.default_rng(6)
        fs = 50.0
        n_ch, n_t = 24, 3000
        noise = ambient_noise(n_ch, n_t, fs=fs, band=(0.5, 20), rng=rng)
        quake = earthquake_signal(
            n_ch, n_t, fs=fs, origin_time=30.0, apparent_velocity=3000.0,
            amplitude=6.0, rng=rng,
        )
        cfg = LocalSimilarityConfig(half_window=25, half_lag=5, stride=50)
        simi, centers = local_similarity_block(noise + quake, cfg)
        t_centers = centers / fs
        during = simi[:, (t_centers > 30) & (t_centers < 40)]
        before = simi[:, t_centers < 25]
        assert during.mean() > before.mean() + 0.15

    def test_vehicle_ridge_is_localised(self):
        rng = np.random.default_rng(7)
        fs = 50.0
        n_ch, n_t = 40, 3000
        noise = ambient_noise(n_ch, n_t, fs=fs, band=(0.5, 20), rng=rng)
        car = vehicle_signal(
            n_ch, n_t, fs=fs, start_time=5.0, start_channel=0.0,
            speed_mps=1.0, channel_spacing=2.0, width_channels=4.0, amplitude=6.0,
        )
        cfg = LocalSimilarityConfig(half_window=25, half_lag=5, stride=50)
        simi, centers = local_similarity_block(noise + car, cfg)
        # At t=20s the car is at channel 10: nearby channels bright,
        # distant channels not.
        col = np.argmin(np.abs(centers / fs - 20.0))
        near = simi[8:12, col].mean()
        far = simi[30:36, col].mean()
        assert near > far + 0.2
