"""Top-level API surface and rendering utilities."""

import numpy as np
import pytest

import repro
from repro.errors import ConfigError
from repro.synthetic.render import to_ascii, wiggle_summary


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_lazy_dassa_import(self):
        assert repro.DASSA.__name__ == "DASSA"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.not_a_thing

    def test_exception_hierarchy(self):
        assert issubclass(repro.FormatError, repro.ReproError)
        assert issubclass(repro.MPIError, repro.ReproError)
        assert issubclass(repro.OutOfMemoryError, repro.ReproError)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestRender:
    def test_ascii_shape(self):
        art = to_ascii(np.random.default_rng(0).normal(size=(100, 200)), rows=10, cols=40)
        lines = art.splitlines()
        assert len(lines) == 10
        assert all(len(line) == 40 for line in lines)

    def test_bright_spot_renders_bright(self):
        arr = np.zeros((20, 20))
        arr[10, 10] = 100.0
        art = to_ascii(arr, rows=20, cols=20)
        assert "@" in art.splitlines()[10]

    def test_small_array_not_upsampled(self):
        art = to_ascii(np.eye(3), rows=10, cols=10)
        assert len(art.splitlines()) == 3

    def test_clip_percentile(self):
        rng = np.random.default_rng(1)
        arr = rng.uniform(0, 1, size=(10, 10))
        arr[0, 0] = 1e9  # outlier flattens everything without clipping
        art_raw = to_ascii(arr)
        art_clip = to_ascii(arr, clip_percentile=95.0)
        # Unclipped: only the outlier is bright, the rest is one shade.
        assert len(set(art_raw.replace("\n", ""))) <= 2
        # Clipped: the background regains contrast (several shades used).
        assert len(set(art_clip.replace("\n", ""))) > 3

    def test_invalid(self):
        with pytest.raises(ConfigError):
            to_ascii(np.zeros(5))
        with pytest.raises(ConfigError):
            to_ascii(np.zeros((2, 2)), rows=0)
        with pytest.raises(ConfigError):
            to_ascii(np.zeros((2, 2)), clip_percentile=10.0)

    def test_wiggle_summary(self):
        data = np.vstack([np.ones(100) * (i + 1) for i in range(4)])
        text = wiggle_summary(data, n_channels=4, width=20)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[-1].count("#") == 20  # loudest channel fills the bar

    def test_wiggle_invalid(self):
        with pytest.raises(ConfigError):
            wiggle_summary(np.zeros(3))
