"""Tests for the synthetic DAS data generator."""

import os

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.storage.dasfile import read_das_file, read_das_metadata
from repro.storage.search import scan_directory
from repro.synthetic import (
    ambient_noise,
    drip_feed_dataset,
    earthquake_signal,
    fig1b_scene,
    generate_dataset,
    persistent_vibration,
    ricker,
    synthesize_scene,
    vehicle_signal,
)
from repro.synthetic.cli import main as das_generate_main
from repro.synthetic.generator import SceneSpec, _minute_stamps


class TestRicker:
    def test_peak_at_zero(self):
        t = np.linspace(-1, 1, 1001)
        w = ricker(t, 5.0)
        assert np.argmax(w) == 500
        assert w[500] == pytest.approx(1.0)

    def test_zero_mean(self):
        t = np.linspace(-2, 2, 4001)
        w = ricker(t, 5.0)
        assert abs(np.trapezoid(w, t)) < 1e-6

    def test_decays(self):
        assert abs(ricker(np.array([3.0]), 5.0)[0]) < 1e-10


class TestAmbientNoise:
    def test_shape_and_unit_scale(self):
        noise = ambient_noise(8, 2000, rng=np.random.default_rng(0))
        assert noise.shape == (8, 2000)
        assert np.std(noise) == pytest.approx(1.0, rel=0.05)

    def test_band_limited(self):
        fs = 500.0
        noise = ambient_noise(
            4, 50000, fs=fs, band=(5.0, 20.0), rng=np.random.default_rng(1)
        )
        spec = np.abs(np.fft.rfft(noise, axis=-1)) ** 2
        freqs = np.fft.rfftfreq(noise.shape[-1], 1 / fs)
        inband = spec[:, (freqs > 5) & (freqs < 20)].mean()
        outband = spec[:, freqs > 100].mean()
        assert inband > 50 * outband

    def test_channels_independent(self):
        noise = ambient_noise(2, 5000, rng=np.random.default_rng(2))
        r = np.corrcoef(noise[0], noise[1])[0, 1]
        assert abs(r) < 0.1

    def test_amplitude_scaling(self):
        a = ambient_noise(2, 1000, amplitude=3.0, rng=np.random.default_rng(3))
        assert np.std(a) == pytest.approx(3.0, rel=0.1)


class TestEarthquake:
    def test_moveout_delays_far_channels(self):
        fs = 100.0
        sig = earthquake_signal(
            64, 4000, fs=fs, origin_time=10.0, epicenter_channel=0,
            apparent_velocity=500.0, channel_spacing=10.0, amplitude=1.0,
            rng=np.random.default_rng(4),
        )
        near_peak = np.argmax(np.abs(sig[1])) / fs
        far_peak = np.argmax(np.abs(sig[60])) / fs
        assert far_peak > near_peak
        # distance 590 m at 500 m/s = 1.18 s extra delay
        assert far_peak - near_peak == pytest.approx(59 * 10 / 500.0, abs=0.15)

    def test_quiet_before_origin(self):
        sig = earthquake_signal(
            8, 2000, fs=100.0, origin_time=10.0, rng=np.random.default_rng(5)
        )
        assert np.max(np.abs(sig[:, :800])) < 0.05 * np.max(np.abs(sig))

    def test_coherent_across_neighbours(self):
        sig = earthquake_signal(
            16, 4000, fs=100.0, origin_time=5.0, apparent_velocity=1e5,
            rng=np.random.default_rng(6),
        )
        r = np.corrcoef(sig[7], sig[8])[0, 1]
        assert r > 0.95  # nearly identical arrivals at huge velocity


class TestVehicle:
    def test_signal_follows_position(self):
        fs = 50.0
        sig = vehicle_signal(
            100, 3000, fs=fs, start_time=0.0, start_channel=0.0,
            speed_mps=10.0, channel_spacing=2.0, width_channels=3.0,
        )
        # at t=20s the car sits at channel 100... off array; at t=10s -> ch 50
        t_idx = int(10.0 * fs)
        profile = np.abs(sig[:, t_idx - 25 : t_idx + 25]).max(axis=1)
        assert abs(int(np.argmax(profile)) - 50) <= 3

    def test_moves_with_negative_speed(self):
        fs = 50.0
        sig = vehicle_signal(
            100, 3000, fs=fs, start_time=0.0, start_channel=99.0,
            speed_mps=-10.0, channel_spacing=2.0, width_channels=3.0,
        )
        t_idx = int(10.0 * fs)
        profile = np.abs(sig[:, t_idx - 25 : t_idx + 25]).max(axis=1)
        assert abs(int(np.argmax(profile)) - 49) <= 3

    def test_silent_before_start(self):
        sig = vehicle_signal(50, 1000, fs=50.0, start_time=10.0)
        assert np.all(sig[:, :499] == 0.0)

    def test_localised(self):
        sig = vehicle_signal(
            200, 500, fs=50.0, start_channel=100.0, speed_mps=0.0,
            width_channels=5.0,
        )
        assert np.max(np.abs(sig[0])) < 1e-6 * np.max(np.abs(sig[100]))


class TestVibration:
    def test_confined_to_neighbourhood(self):
        sig = persistent_vibration(
            100, 1000, center_channel=50, width=5, rng=np.random.default_rng(7)
        )
        assert np.abs(sig[50]).max() > 100 * np.abs(sig[0]).max()

    def test_narrowband(self):
        fs = 500.0
        sig = persistent_vibration(
            4, 50000, fs=fs, center_channel=2, width=5, freq=20.0,
            rng=np.random.default_rng(8),
        )
        spec = np.abs(np.fft.rfft(sig[2]))
        freqs = np.fft.rfftfreq(50000, 1 / fs)
        peak = freqs[np.argmax(spec)]
        assert peak == pytest.approx(20.0, abs=0.5)


class TestSceneAndDataset:
    def test_scene_reproducible(self):
        scene = fig1b_scene(n_channels=32, minutes=2, samples_per_minute=200)
        a = synthesize_scene(scene, 2, samples_per_minute=200)
        b = synthesize_scene(scene, 2, samples_per_minute=200)
        np.testing.assert_array_equal(a, b)

    def test_scene_has_earthquake_energy(self):
        scene = fig1b_scene(n_channels=64, minutes=2, samples_per_minute=1000, fs=50.0)
        data = synthesize_scene(scene, 2, samples_per_minute=1000)
        # the earthquake dominates the quiet start
        eq_window = data[:, 1100:1400]
        early = data[:, 0:100]
        assert np.abs(eq_window).max() > 2 * np.abs(early).max()

    def test_generate_dataset_files(self, tmp_path):
        scene = fig1b_scene(n_channels=16, minutes=3, samples_per_minute=100, fs=10.0)
        paths = generate_dataset(
            str(tmp_path / "d"), 3, scene=scene, samples_per_minute=100
        )
        assert len(paths) == 3
        catalog = scan_directory(str(tmp_path / "d"))
        assert [read_das_file(c.path)[0].shape[1] for c in catalog] == [100, 100, 100]
        assert catalog[1].timestamp == "170620100555"  # +10 s at 10 Hz

    def test_files_concatenate_to_scene(self, tmp_path):
        scene = fig1b_scene(n_channels=8, minutes=2, samples_per_minute=50, fs=10.0)
        paths = generate_dataset(
            str(tmp_path / "d"), 2, scene=scene, samples_per_minute=50
        )
        full = synthesize_scene(scene, 2, samples_per_minute=50)
        blocks = [read_das_file(p)[0] for p in paths]
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1), full)

    def test_unknown_event_kind(self):
        scene = SceneSpec(n_channels=4, events=[("tsunami", {})])
        with pytest.raises(ConfigError):
            synthesize_scene(scene, 1, samples_per_minute=10)

    def test_zero_minutes_rejected(self):
        with pytest.raises(ConfigError):
            synthesize_scene(SceneSpec(n_channels=4), 0, samples_per_minute=10)

    def test_cli(self, tmp_path, capsys):
        rc = das_generate_main(
            ["-o", str(tmp_path / "out"), "-m", "2", "-n", "8", "--spm", "50", "--fs", "10"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2

    @pytest.mark.parametrize("drip", [False, True])
    def test_minutes_that_would_share_a_name_are_refused(
        self, tmp_path, capsys, drip
    ):
        """Stamps are to the second: two 0.4 s minutes (200 samples at the
        default 500 Hz) would both be ``westSac_170620100545.h5``, the
        second silently replacing the first.  Nothing is written; the CLI
        says so in one line and exits 2."""
        out = tmp_path / "out"
        argv = ["-o", str(out), "-m", "2", "-n", "8", "--spm", "200"]
        rc = das_generate_main(argv + (["--drip", "0"] if drip else []))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "das_generate: error: minutes of 0.4 s would share file names "
            "(stamps are to the second): give each minute at least fs samples"
        ]
        assert not out.exists()  # refused before the directory is made
        with pytest.raises(ConfigError, match="share file names"):
            generate_dataset(str(out), 2, scene=SceneSpec(n_channels=4), samples_per_minute=200)
        assert not out.exists()
        # one second a minute is enough
        assert das_generate_main(["-o", str(out), "-m", "2", "-n", "8", "--spm", "500"]) == 0
        assert len(os.listdir(out)) == 2

    def test_stamps_are_true_start_times(self, tmp_path):
        """Minute k is stamped ``start + k * seconds``, truncated to the
        second: the truncation of one stamp never carries into the next."""
        assert _minute_stamps("170620100545", 6, 1.5)[-1] == "170620100552"
        assert _minute_stamps("170620100545", 10, 59.9)[-1] == "170620101444"
        # 1.5 s minutes: 15 samples at 10 Hz
        scene = SceneSpec(n_channels=2, fs=10.0)
        paths = generate_dataset(tmp_path, 6, scene=scene, samples_per_minute=15)
        assert [os.path.basename(p)[-9:-3] for p in paths] == [
            "100545", "100546", "100548", "100549", "100551", "100552",
        ]
        # 59.9 s minutes: ten of them span 599 s, the last starts at +539.1 s
        paths = generate_dataset(
            tmp_path / "long", 10, scene=scene, samples_per_minute=599
        )
        assert os.path.basename(paths[-1]) == "westSac_170620101444.h5"
        assert read_das_metadata(paths[-1])[0].timestamp == "170620101444"

    def test_generate_dataset_is_the_drained_drip(self, tmp_path):
        scene = fig1b_scene(n_channels=8, minutes=3, samples_per_minute=600)
        kwargs = dict(scene=scene, samples_per_minute=600, codec="delta-zlib")
        batch = generate_dataset(tmp_path / "batch", 3, **kwargs)
        drip = list(drip_feed_dataset(tmp_path / "drip", 3, **kwargs))
        assert [os.path.basename(p) for p in batch] == [
            os.path.basename(p) for p in drip
        ]
        for a, b in zip(batch, drip):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()


class TestDrip:
    def test_a_drip_whose_write_raises_leaves_no_h5(self, tmp_path, monkeypatch):
        # write_das_file publishes a minute file whole: a write that fails
        # half-way leaves neither a .h5 nor its .tmp sibling in the spool
        from repro.hdf5lite.binary import FileBackend
        from repro.synthetic.generator import drip_feed_dataset

        # 500 samples at the default 500 Hz: one second, so the two minutes
        # get two file names
        scene = fig1b_scene(minutes=2, samples_per_minute=500)
        drip = drip_feed_dataset(tmp_path, 2, scene=scene, samples_per_minute=500)
        first = next(drip)
        assert os.listdir(tmp_path) == [os.path.basename(first)]
        write_at, calls = FileBackend.write_at, []

        def failing(self, offset, data):
            calls.append(offset)
            if len(calls) == 2:  # the header went out, the samples do not
                raise OSError("device full")
            write_at(self, offset, data)

        monkeypatch.setattr(FileBackend, "write_at", failing)
        with pytest.raises(OSError, match="device full"):
            next(drip)
        assert os.listdir(tmp_path) == [os.path.basename(first)]
