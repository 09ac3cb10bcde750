"""Tests for event detection/classification on similarity maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detection import DetectedEvent, detect_events, _connected_components
from repro.errors import ConfigError
from tests.reference.core import bfs_components


def make_map(n_channels=40, n_centers=60):
    rng = np.random.default_rng(0)
    simi = 0.30 + 0.02 * rng.standard_normal((n_channels, n_centers))
    centers = np.arange(n_centers) * 100 + 50
    return simi, centers


class TestConnectedComponents:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        shape=st.tuples(st.integers(1, 24), st.integers(1, 60)),
        density=st.floats(0.05, 0.95),
    )
    def test_labels_and_numbering_match_the_flood_fill(self, seed, shape, density):
        mask = np.random.default_rng(seed).random(shape) < density
        np.testing.assert_array_equal(
            _connected_components(mask), bfs_components(mask)
        )

    def test_empty(self):
        labels = _connected_components(np.zeros((3, 3), dtype=bool))
        assert labels.max() == 0

    def test_single_blob(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:3, 1:4] = True
        labels = _connected_components(mask)
        assert labels.max() == 1
        assert (labels > 0).sum() == 6

    def test_two_blobs(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = True
        mask[4, 4] = True
        labels = _connected_components(mask)
        assert labels.max() == 2

    def test_diagonal_not_connected(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        assert _connected_components(mask).max() == 2


class TestDetectEvents:
    def test_no_events_in_pure_noise(self):
        simi, centers = make_map()
        events = detect_events(simi, centers, fs=100.0, threshold_sigmas=5.0)
        assert events == []

    def test_earthquake_classification(self):
        simi, centers = make_map()
        simi[:, 30:34] = 0.9  # whole array lights up briefly
        events = detect_events(simi, centers, fs=100.0)
        assert len(events) == 1
        ev = events[0]
        assert ev.kind == "earthquake"
        assert ev.channel_span == simi.shape[0]
        assert ev.peak_similarity == pytest.approx(0.9)

    def test_vehicle_classification(self):
        simi, centers = make_map()
        # a moving diagonal ridge: channel ~ time
        for col in range(10, 40):
            ch = col - 5
            simi[max(0, ch - 1) : ch + 2, col] = 0.85
        events = detect_events(simi, centers, fs=100.0)
        kinds = [e.kind for e in events]
        assert "vehicle" in kinds
        vehicle = next(e for e in events if e.kind == "vehicle")
        assert vehicle.speed_channels_per_s > 0

    def test_persistent_classification(self):
        simi, centers = make_map()
        simi[20:23, :] = 0.8  # fixed channels, whole record
        events = detect_events(simi, centers, fs=100.0)
        assert len(events) == 1
        assert events[0].kind == "persistent"

    def test_min_cells_filters_specks(self):
        simi, centers = make_map()
        simi[5, 5] = 0.95  # one-cell spike
        events = detect_events(simi, centers, fs=100.0, min_cells=4)
        assert events == []

    def test_events_sorted_by_time(self):
        simi, centers = make_map()
        simi[:, 50:53] = 0.9
        simi[10:13, 5:15] = 0.85
        events = detect_events(simi, centers, fs=100.0)
        starts = [e.t_start for e in events]
        assert starts == sorted(starts)

    def test_fields_consistent(self):
        simi, centers = make_map()
        simi[:, 30:33] = 0.9
        ev = detect_events(simi, centers, fs=100.0)[0]
        assert ev.duration >= 0
        assert ev.t_end >= ev.t_start
        assert ev.n_cells >= 6
        assert isinstance(ev, DetectedEvent)

    def test_validation(self):
        simi, centers = make_map()
        with pytest.raises(ConfigError):
            detect_events(simi, centers[:-1], fs=100.0)
        with pytest.raises(ConfigError):
            detect_events(simi, centers, fs=0.0)
        with pytest.raises(ConfigError):
            detect_events(np.zeros(5), centers, fs=100.0)

    def test_empty_map(self):
        assert detect_events(np.zeros((0, 0)), np.zeros(0), fs=100.0) == []

    def test_flat_map_no_division_error(self):
        simi = np.full((10, 10), 0.5)
        centers = np.arange(10) * 10
        assert detect_events(simi, centers, fs=100.0) == []

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("min_cells", [0, 3, 6])
    def test_events_equal_a_per_label_rescan(self, seed, min_cells):
        """Grouping the hit cells once gives, event for event, what
        rescanning the whole map per flood-fill label gives."""
        rng = np.random.default_rng(seed)
        simi = 0.3 + 0.05 * rng.standard_normal((20, 300))
        simi[4:9, 100:140] += 0.3
        centers = 30 + 25 * np.arange(300)
        fs, sigmas = 50.0, 1.25
        median = np.median(simi)
        threshold = median + sigmas * 1.4826 * np.median(np.abs(simi - median))
        labels = bfs_components(simi > threshold)
        want = []
        for label in range(1, labels.max() + 1):
            cells = np.argwhere(labels == label)
            if len(cells) < min_cells:
                continue
            t = centers[cells[:, 1]] / fs
            slope = 0.0
            if t.max() > t.min():
                slope = float(np.polyfit(t, cells[:, 0].astype(float), 1)[0])
            want.append((
                label, int(cells[:, 0].min()), int(cells[:, 0].max()),
                float(t.min()), float(t.max()),
                float(simi[labels == label].max()), len(cells), slope,
            ))
        got = detect_events(
            simi, centers, fs, threshold_sigmas=sigmas, min_cells=min_cells
        )
        assert len(got) >= 1 and (min_cells or len(got) > 50)
        assert sorted(
            (e.label, e.channel_lo, e.channel_hi, e.t_start, e.t_end,
             e.peak_similarity, e.n_cells, e.speed_channels_per_s)
            for e in got
        ) == want
