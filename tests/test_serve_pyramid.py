"""Pyramid correctness: stored levels are bit-exact DecimateOp outputs.

The contract under test (``repro.serve.pyramid`` + ``repro.hdf5lite.pyramid``):

* a level is ``float32(DecimateOp(factor) over the record)``: the
  float64 plan ``Query.scan(None).then(DecimateOp(factor))`` rounded
  once.  ``compute_level`` equals that rounding bit-for-bit at any
  chunking, and every stored level ``k`` equals ``compute_level`` at
  ``factor**k`` bit-for-bit (the computation is deterministic);
* the float64 plan streamed at any chunking stays within the repo's
  established 1e-9 of a single-chunk whole-record run (chunk fringes see
  zeros where the whole record has samples, and BLAS may round edge
  blocks differently — same tolerance the core streaming suite uses for
  resample chains);
* a finite decimated sample beyond float32's range is refused
  (``ServeError``), never stored as an ``inf`` a preview would show as
  a gap; a level that is neither float32 nor float64 (the dtype older
  builds stored) is a ``verify`` problem the server refuses, and float64
  levels from those builds still verify and serve bit-for-bit;
* the build reads the archive once, whatever the number of levels;
* NaN gap columns in the raw record propagate into NaN (masked) preview
  pixels: exactly the pixels whose FIR support reaches into the gap are
  NaN, and every other pixel is bit-identical to the clean record's;
* the stored form round-trips through codecs + CRC sidecars and is
  covered by ``das_inspect``-style ``describe``/``verify``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.pyramid as pyramid_module
from repro.core.operators import DecimateOp
from repro.core.optimizer import execute, optimize
from repro.core.graph import Query
from repro.errors import ConfigError, FormatError, ServeError
from repro.hdf5lite import File, pyramid_levels
from repro.hdf5lite.cli import main as das_inspect_main
from repro.hdf5lite.inspect import describe, verify
from repro.hdf5lite.pyramid import (
    BASE_DATASET_ATTR,
    BASE_FACTOR_ATTR,
    BASE_SAMPLES_ATTR,
    FACTOR_ATTR,
    FS_ATTR,
    LEVEL_ATTR,
    PYRAMID_GROUP,
    PyramidLevel,
)
from repro.serve import DataServer
from repro.serve.pyramid import (
    PyramidConfig,
    build_pyramid,
    compute_level,
    level_slice,
    select_level,
)
from repro.storage.chunks import ArraySource, open_stream
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.storage.vca import create_vca
from repro.utils.iostats import IOStats
from tests.reference.serve import parent_build_pyramid


def decimated(data: np.ndarray, factor: int, chunk: int | None = None) -> np.ndarray:
    """The float64 plan a level rounds: ``DecimateOp(factor)`` streamed
    over ``data`` in ``chunk``-sample chunks."""
    plan = optimize(
        Query.scan(None).then(DecimateOp(factor)), chunk_samples=chunk
    )
    (result,) = execute(plan, source=ArraySource(data))
    return result.output


def whole_record_reference(data: np.ndarray, factor: int) -> np.ndarray:
    """DecimateOp in one chunk covering the entire record (float64)."""
    return decimated(data, factor, chunk=data.shape[1])


def make_vca(root: str, n_channels=8, minutes=3, spm=600, fs=10.0, seed=7):
    rng = np.random.default_rng(seed)
    stamp = "170620100545"
    paths = []
    for _ in range(minutes):
        block = rng.normal(size=(n_channels, spm)).astype(np.float32)
        path = os.path.join(root, das_filename(stamp))
        write_das_file(
            path,
            block,
            DASMetadata(
                sampling_frequency=fs,
                spatial_resolution=2.0,
                timestamp=stamp,
                n_channels=n_channels,
            ),
            channel_groups=False,
        )
        paths.append(path)
        stamp = timestamp_add_seconds(stamp, 60)
    return create_vca(os.path.join(root, "arch.h5"), paths)


# -- streamed == whole-record, swept ----------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    n_samples=st.integers(50, 400),
    factor=st.integers(2, 5),
    chunk=st.integers(16, 96),
    seed=st.integers(0, 2**16),
)
def test_compute_level_matches_whole_record(n_samples, factor, chunk, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(3, n_samples))
    streamed = decimated(data, factor, chunk)
    assert streamed.shape == (3, -(-n_samples // factor))
    # the float64 plan, chunked, agrees with the whole-record run to the
    # core suite's resample tolerance ...
    np.testing.assert_allclose(
        streamed, whole_record_reference(data, factor), rtol=0, atol=1e-9
    )
    # ... and the level is that plan's output rounded once to float32,
    # deterministically, bit-for-bit
    level = compute_level(data, factor, chunk_samples=chunk)
    assert level.dtype == np.float32
    np.testing.assert_array_equal(level, streamed.astype(np.float32))
    np.testing.assert_array_equal(
        level, compute_level(data, factor, chunk_samples=chunk)
    )


def test_ragged_tail_lengths():
    # every residue class mod factor, so the last chunk and the last
    # output sample hit each ragged configuration
    for extra in range(4):
        data = np.random.default_rng(extra).normal(size=(2, 96 + extra))
        streamed = decimated(data, 4, 25)
        assert streamed.shape == (2, -(-(96 + extra) // 4))
        np.testing.assert_allclose(
            streamed, whole_record_reference(data, 4), rtol=0, atol=1e-9
        )
        np.testing.assert_array_equal(
            compute_level(data, 4, chunk_samples=25),
            streamed.astype(np.float32),
        )


def float32_max_square_wave(n_channels: int, n_samples: int) -> np.ndarray:
    """Finite float32 samples whose decimation overshoots float32's range:
    the anti-aliasing FIR rings past a full-scale step."""
    top = np.finfo(np.float32).max
    phase = (np.arange(n_samples) // 100) % 2 == 0
    return np.tile(np.where(phase, top, -top).astype(np.float32), (n_channels, 1))


def test_level_outside_float32_range_is_refused():
    wave = float32_max_square_wave(2, 800).astype(np.float64)
    assert np.isfinite(decimated(wave, 4)).all()
    assert (np.abs(decimated(wave, 4)) > np.finfo(np.float32).max).any()
    with pytest.raises(ServeError, match="decimation by 4.*float32 range"):
        compute_level(wave, 4)
    # non-finite samples are no overflow: NaN and inf round to themselves
    quiet = np.zeros((2, 800))
    quiet[0, 100], quiet[1, 300:] = np.inf, np.nan
    level = compute_level(quiet, 4)
    np.testing.assert_array_equal(
        np.isnan(level), np.isnan(decimated(quiet, 4))
    )
    np.testing.assert_array_equal(
        np.isinf(level), np.isinf(decimated(quiet, 4))
    )


# -- NaN gaps → masked pixels ------------------------------------------------

def gap_mask(factor: int, n_samples: int, g0: int, g1: int) -> np.ndarray:
    """Pixels whose FIR support ``[j*factor - 10*factor, j*factor +
    10*factor]`` holds a sample of the gap ``[g0, g1)``."""
    centres = np.arange(-(-n_samples // factor)) * factor
    half = 10 * factor
    return (centres + half >= g0) & (centres - half <= g1 - 1)


def test_nan_gap_columns_mask_preview_pixels():
    rng = np.random.default_rng(3)
    clean = rng.normal(size=(4, 800))
    gapped = clean.copy()
    g0, g1 = 300, 420
    gapped[:, g0:g1] = np.nan
    factor = 4
    # default chunking: the whole record is one chunk
    out_clean = compute_level(clean, factor)
    out_gapped = compute_level(gapped, factor)

    # the gap widened by the FIR half-length is masked, nothing more
    masked = gap_mask(factor, 800, g0, g1)
    assert masked.any() and not masked.all()
    np.testing.assert_array_equal(
        np.isnan(out_gapped), np.broadcast_to(masked, out_gapped.shape)
    )
    # every other pixel is bit-identical to the clean record's
    np.testing.assert_array_equal(
        out_gapped[:, ~masked], out_clean[:, ~masked]
    )


# -- end-to-end stored pyramid ----------------------------------------------

def test_build_pyramid_stored_levels_bit_exact(tmp_path):
    # the default, and the codec pyramids were built with before it:
    # archives that carry ``delta-zlib`` levels stay readable (the codec
    # is recorded per dataset)
    for config, codec in [
        (PyramidConfig(factor=4, min_samples=32), "transpose-zlib:1"),
        (
            PyramidConfig(factor=4, min_samples=32, codec="delta-zlib:1"),
            "delta-zlib:1",
        ),
    ]:
        root = tmp_path / codec.replace(":", "_")
        root.mkdir()
        vca = make_vca(str(root))
        levels = build_pyramid(vca, config)
        assert [lvl.factor for lvl in levels] == [4, 16]
        with File(vca, "r") as f:
            assert verify(f) == []
            raw = np.asarray(f["VCA"][:, :], dtype=np.float64)
            for lvl in levels:
                stored = f[lvl.path][:, :]
                assert stored.dtype == np.float32 and lvl.dtype == "float32"
                # this record fits one auto-sized chunk, so the build and
                # the whole-record reference run the identical computation
                np.testing.assert_array_equal(
                    stored,
                    whole_record_reference(raw, lvl.factor).astype(np.float32),
                )
                np.testing.assert_array_equal(
                    stored, compute_level(raw, lvl.factor)
                )
                assert lvl.codec == codec
                assert lvl.base_samples == raw.shape[1]
        # and the server reads either: a preview at level 2's pitch is
        # that level, pixel for pixel
        with DataServer(vca) as server:
            preview = server.session("viewer").preview(
                0, raw.shape[1], raw.shape[1] // 16
            )
            assert preview.level == 2
            np.testing.assert_array_equal(
                preview.data, compute_level(raw, 16)
            )


@pytest.mark.parametrize("codec", ["transpose-zlib:1", "delta-zlib:1"])
def test_float64_pyramids_from_older_builds_still_serve(tmp_path, codec):
    # levels stored by the builder before levels were float32: the
    # float64 plan's outputs, with the default codec and with the one
    # that was the default before it
    vca = make_vca(str(tmp_path))
    levels = parent_build_pyramid(
        vca, PyramidConfig(factor=4, min_samples=32, codec=codec)
    )
    assert [(lvl.factor, lvl.dtype) for lvl in levels] == [
        (4, "float64"), (16, "float64")
    ]
    with File(vca, "r") as f:
        assert verify(f) == []
        raw = np.asarray(f["VCA"][:, :], dtype=np.float64)
        stored = {lvl.factor: f[lvl.path][:, :] for lvl in levels}
    with DataServer(vca) as server:
        session = server.session("viewer")
        for lvl in levels:
            n = raw.shape[1]
            preview = session.preview(0, n, n // lvl.factor)
            assert preview.level == lvl.level
            assert preview.data.dtype == np.float64
            # the stored float64 values, not rounded through float32
            np.testing.assert_array_equal(preview.data, stored[lvl.factor])
            np.testing.assert_array_equal(
                preview.data, whole_record_reference(raw, lvl.factor)
            )


def test_build_refuses_a_level_outside_float32_range(tmp_path):
    # finite float32 minutes whose decimation overshoots float32's range:
    # refused naming the level, before any level is written
    stamp = "170620100545"
    path = str(tmp_path / das_filename(stamp))
    write_das_file(
        path,
        float32_max_square_wave(4, 800),
        DASMetadata(
            sampling_frequency=10.0,
            spatial_resolution=2.0,
            timestamp=stamp,
            n_channels=4,
        ),
        channel_groups=False,
    )
    vca = create_vca(str(tmp_path / "arch.h5"), [path])
    with pytest.raises(ServeError, match=r"pyramid/level1 \(factor 4\)"):
        build_pyramid(vca, PyramidConfig(factor=4, min_samples=32))
    with File(vca, "r") as f:
        assert pyramid_levels(f) == [] and verify(f) == []


def test_build_refuses_an_archive_that_stores_sample_bytes(tmp_path):
    # the archive is written again with its levels, which costs nothing
    # only for a metadata-only VCA: a file with stored samples is refused
    # before a byte is written
    vca = make_vca(str(tmp_path))
    with File(vca, "r") as f:
        minute = os.path.join(
            str(tmp_path), f.dataset("VCA").virtual_sources[0].file
        )
    with open(minute, "rb") as fh:
        before = fh.read()
    with pytest.raises(ServeError, match="stores sample bytes"):
        build_pyramid(minute, PyramidConfig(factor=4, min_samples=32))
    with open(minute, "rb") as fh:
        assert fh.read() == before
    assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))


def test_build_republishes_the_archive_whole(tmp_path):
    # the new archive carries the old one's attributes and virtual dataset
    # unchanged, and no staging file is left behind
    vca = make_vca(str(tmp_path))
    def described(f):
        base = f.dataset("VCA")
        return (f.attrs.to_dict(), base.attrs.to_dict(), base.virtual_sources,
                base.shape, base.dtype, base.fill)

    with File(vca, "r") as f:
        expected = described(f)
    build_pyramid(vca, PyramidConfig(factor=4, min_samples=32))
    with File(vca, "r") as f:
        assert described(f) == expected
        assert f.keys() == ["VCA", PYRAMID_GROUP]
        assert verify(f) == []
    assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))


def archive_scan_stats(vca: str) -> dict:
    """The backend I/O of one full read of the archive."""
    stats = IOStats()
    with open_stream(vca, iostats=stats) as src:
        src.read(0, src.n_samples)
    return stats.full_snapshot()


@pytest.mark.parametrize("max_levels", [2, 5])
def test_build_reads_the_archive_once(tmp_path, max_levels):
    vca = make_vca(str(tmp_path), spm=6000)
    scan = archive_scan_stats(vca)
    stats = IOStats()
    levels = build_pyramid(
        vca,
        PyramidConfig(factor=2, max_levels=max_levels, min_samples=32),
        iostats=stats,
    )
    assert len(levels) == max_levels
    built = stats.full_snapshot()
    assert built["bytes_read"] == scan["bytes_read"]
    assert built["reads"] == scan["reads"]
    assert built["opens"] == scan["opens"]
    with File(vca, "r") as f:
        raw = np.asarray(f["VCA"][:, :], dtype=np.float64)
        for lvl in levels:
            np.testing.assert_array_equal(
                f[lvl.path][:, :], compute_level(raw, lvl.factor)
            )


def test_one_pass_masked_build_equals_per_level_compute(tmp_path):
    vca = make_vca(str(tmp_path))
    paths = sorted(
        os.path.join(str(tmp_path), name)
        for name in os.listdir(str(tmp_path))
        if name != "arch.h5"
    )
    os.remove(paths[1])  # minute 2 of 3 vanishes: samples [600, 1200)
    with open_stream(vca, on_error="mask") as src:
        masked = src.read(0, src.n_samples)
    assert np.isnan(masked[:, 600:1200]).all()
    levels = build_pyramid(
        vca, PyramidConfig(factor=4, min_samples=32), on_error="mask"
    )
    assert [lvl.factor for lvl in levels] == [4, 16]
    with File(vca, "r") as f:
        for lvl in levels:
            stored = f[lvl.path][:, :]
            np.testing.assert_array_equal(
                stored, compute_level(masked, lvl.factor)
            )
            # minutes 1 and 3 stay finite outside the FIR fringe
            np.testing.assert_array_equal(
                np.isnan(stored),
                np.broadcast_to(
                    gap_mask(lvl.factor, 1800, 600, 1200), stored.shape
                ),
            )


def test_build_pyramid_verify_and_describe(tmp_path):
    vca = make_vca(str(tmp_path))
    build_pyramid(vca, PyramidConfig(factor=4, min_samples=32))
    with File(vca, "r") as f:
        assert verify(f) == []
        listing = describe(f)
        assert "pyramid[level=1 factor=4]" in listing
        assert "pyramid[level=2 factor=16]" in listing
        assert pyramid_levels(f) == pyramid_levels(f)


def test_das_inspect_verify_clean_on_packed_files_vca_and_levels(tmp_path, capsys):
    # minute files, the archive over them and its levels, all through the
    # plane-aware encoder with CRCs: ``das_inspect --verify`` is clean
    rng = np.random.default_rng(11)
    stamp, paths = "170620100545", []
    for _ in range(2):
        path = str(tmp_path / das_filename(stamp))
        block = np.cumsum(rng.normal(size=(8, 600)), axis=1).astype(np.float32)
        block[5:7] = 0.0  # dead channels: not every block is noise
        write_das_file(
            path,
            block,
            DASMetadata(
                sampling_frequency=10.0,
                spatial_resolution=2.0,
                timestamp=stamp,
                n_channels=8,
            ),
            channel_groups=False,
            chunks=(8, 256),
            codec="transpose-zlib",
            checksum=True,
        )
        paths.append(path)
        stamp = timestamp_add_seconds(stamp, 60)
    vca = create_vca(str(tmp_path / "arch.h5"), paths)
    levels = build_pyramid(vca, PyramidConfig(factor=4, min_samples=32))
    assert {lvl.codec for lvl in levels} == {"transpose-zlib:1"}
    assert das_inspect_main(["--verify", *paths, vca]) == 0
    out = capsys.readouterr()
    assert out.out.count("integrity: ok") == 3 and "PROBLEM" not in out.err
    assert "codec=transpose-zlib:1 (lossless)" in out.out


def build_lying_about_the_rate(vca, monkeypatch):
    """``build_pyramid`` with level 1's factor attribute set to 8 on the
    new archive just before it is published (a written archive is never
    changed); the build's own read-back already refuses it."""

    class Tampered(File):
        def close(self):
            if self.writable and not self.closed:
                self["pyramid/level1"].attrs[FACTOR_ATTR] = 8
            super().close()

    monkeypatch.setattr(pyramid_module, "File", Tampered)
    with pytest.raises(FormatError, match="base factor"):
        build_pyramid(vca, PyramidConfig(factor=4, min_samples=32))


def test_verify_catches_tampered_factor(tmp_path, monkeypatch):
    vca = make_vca(str(tmp_path))
    build_lying_about_the_rate(vca, monkeypatch)
    with File(vca, "r") as f:
        messages = [p.message for p in verify(f)]
    assert any("base factor" in m for m in messages)
    assert any("level length" in m for m in messages)


def test_server_refuses_what_verify_rejects(tmp_path, monkeypatch):
    """``pyramid_levels`` is the one walk ``verify`` and ``DataServer``
    share: a level whose factor lies is refused at open, typed, naming
    the first problem ``verify`` lists — never served as pixels that are
    not ``compute_level(raw, factor)``."""
    vca = make_vca(str(tmp_path))
    build_lying_about_the_rate(vca, monkeypatch)
    with File(vca, "r") as f:
        first = verify(f)[0]
    with pytest.raises(FormatError, match="base factor") as err:
        DataServer(vca)
    assert str(err.value) == f"{first.path}: {first.message}"


def add_level(vca: str, dtype: str) -> None:
    """A hand-made ``pyramid/level1`` of ``dtype`` whose attributes all
    hold: factor 4 of the archive's 8 x 1800 record, in the archive
    written again."""
    with File(vca, "r") as old:
        root_attrs, base = old.attrs.to_dict(), old.dataset("VCA")
    with File(vca, "w") as f:
        f.attrs.update_many(root_attrs)
        f.create_dataset(
            "VCA", shape=base.shape, dtype=base.dtype,
            virtual_sources=base.virtual_sources,
        ).attrs.update_many(base.attrs.to_dict())
        group = f.create_group("pyramid")
        group.attrs[BASE_FACTOR_ATTR] = 4
        ds = f.create_dataset(
            "pyramid/level1",
            data=np.ones((8, 450), dtype=dtype),
            chunks=(8, 450),
            checksum=True,
        )
        ds.attrs[LEVEL_ATTR] = 1
        ds.attrs[FACTOR_ATTR] = 4
        ds.attrs[BASE_SAMPLES_ATTR] = 1800
        ds.attrs[BASE_DATASET_ATTR] = "VCA"
        ds.attrs[FS_ATTR] = 2.5


@pytest.mark.parametrize("dtype", ["int16", "complex128"])
def test_level_that_is_not_float_is_refused(tmp_path, capsys, dtype):
    """Only float32 levels (and float64 ones from older builds) are
    pixels: ``das_inspect --verify`` reports any other dtype, and the
    server refuses it rather than serve its values as a preview."""
    vca = make_vca(str(tmp_path))
    add_level(vca, dtype)
    with File(vca, "r") as f:
        problems = [(p.path, p.message) for p in verify(f)]
    assert problems == [
        ("/pyramid/level1", f"pyramid level must be float32 or float64, got {dtype}")
    ]
    assert das_inspect_main(["--verify", vca]) == 1
    assert "float32 or float64" in capsys.readouterr().err
    with pytest.raises(FormatError, match=f"got {dtype}"):
        DataServer(vca)


def test_build_twice_rejected(tmp_path):
    vca = make_vca(str(tmp_path))
    build_pyramid(vca, PyramidConfig(factor=4, min_samples=32))
    with pytest.raises(ServeError):
        build_pyramid(vca, PyramidConfig(factor=4, min_samples=32))


def test_too_short_record_rejected(tmp_path):
    vca = make_vca(str(tmp_path), minutes=1, spm=60)
    with pytest.raises(ServeError):
        build_pyramid(vca, PyramidConfig(factor=4, min_samples=1000))


# -- level selection ---------------------------------------------------------

def _lvl(level: int, factor: int) -> PyramidLevel:
    return PyramidLevel(
        level=level,
        factor=factor,
        path=f"/pyramid/level{level}",
        shape=(4, 1000),
        dtype="float64",
        codec=None,
        base_samples=1000 * factor,
        base_dataset="VCA",
        fs=0.0,
    )


def test_select_level_picks_coarsest_fitting():
    levels = [_lvl(1, 4), _lvl(2, 16), _lvl(3, 64)]
    assert select_level(levels, span=64_000, width=100).factor == 64
    # exactly one stored sample per pixel still fits
    assert select_level(levels, span=6_400, width=100).factor == 64
    assert select_level(levels, span=3_200, width=100).factor == 16
    assert select_level(levels, span=800, width=100).factor == 4
    # pixel pitch finer than the finest level: read raw
    assert select_level(levels, span=300, width=100) is None
    assert select_level([], span=10_000, width=100) is None


def test_select_level_validates():
    with pytest.raises(ConfigError):
        select_level([], span=0, width=10)
    with pytest.raises(ConfigError):
        select_level([], span=100, width=0)


@settings(max_examples=60, deadline=None)
@given(
    factor=st.integers(1, 64),
    t0=st.integers(0, 5000),
    span=st.integers(1, 5000),
)
def test_level_slice_matches_lattice_membership(factor, t0, span):
    t1 = t0 + span
    j0, j1 = level_slice(factor, t0, t1)
    lattice = [j for j in range((t1 // factor) + 2) if t0 <= j * factor < t1]
    assert (j0, j1) == ((lattice[0], lattice[-1] + 1) if lattice else (j0, j0))
