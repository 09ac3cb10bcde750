"""An open VCA is one object: the :class:`~repro.storage.vca.VCAHandle`
that ``open_vca`` and ``open_stream`` both return is the chunk source the
executor reads, and its degraded-read mode is its own — other handles on
the same :class:`~repro.hdf5lite.FilePool` never see it."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import DASSA
from repro.hdf5lite import FilePool
from repro.storage.chunks import ChunkSource, open_stream
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.storage.vca import VCAHandle, create_vca, open_vca

MINUTES, CHANNELS, SPM = 6, 16, 120


def _write_archive(root):
    """Six checksummed 16 x 120 minutes merged into one VCA."""
    rng = np.random.default_rng(11)
    stamp = "170620100545"
    paths, blocks = [], []
    for _ in range(MINUTES):
        data = rng.normal(size=(CHANNELS, SPM)).astype(np.float32)
        metadata = DASMetadata(
            sampling_frequency=2.0,
            spatial_resolution=2.0,
            timestamp=stamp,
            n_channels=CHANNELS,
        )
        path = str(root / das_filename(stamp))
        write_das_file(path, data, metadata, channel_groups=False, checksum=True)
        paths.append(path)
        blocks.append(data)
        stamp = timestamp_add_seconds(stamp, 60)
    return {
        "vca": create_vca(str(root / "v.h5"), paths),
        "paths": paths,
        "full": np.concatenate(blocks, axis=1),
    }


@pytest.fixture
def archive(tmp_path):
    return _write_archive(tmp_path)


@pytest.fixture(scope="module")
def shared_archive(tmp_path_factory):
    return _write_archive(tmp_path_factory.mktemp("vca_handle"))


def _spans(handle):
    return sorted((s.t0, s.t1) for s in handle.gaps)


class TestOneObject:
    def test_open_vca_and_open_stream_return_one_chunk_source(self, archive):
        with open_vca(archive["vca"]) as a, open_stream(archive["vca"]) as b:
            assert type(a) is type(b) is VCAHandle
            assert isinstance(a, ChunkSource)
            assert (a.n_channels, a.n_samples, a.fs) == (CHANNELS, 720, 2.0)
            np.testing.assert_array_equal(
                a.read_strided(3, 9, 100, 500, 7), archive["full"][3:9, 100:500:7]
            )

    def test_dassa_on_an_open_handle_is_dassa_on_the_path(self, archive):
        dassa = DASSA(chunk_samples=200)
        from_path = dassa.sta_lta(archive["vca"], 5, 50)
        with open_vca(archive["vca"]) as handle:
            from_handle = dassa.sta_lta(handle, 5, 50)
        np.testing.assert_array_equal(from_handle, from_path)


def test_pooled_handles_keep_their_own_degraded_read_modes(archive):
    """Two masked handles and a fail-fast one, open at once on one pool:
    each masked handle records only its own read's loss, closing one
    leaves the other masking, and the fail-fast one still raises."""
    os.remove(archive["paths"][2])  # VCA samples [240, 360)
    with FilePool() as pool:
        a = open_vca(archive["vca"], pool=pool, on_error="mask")
        b = open_vca(archive["vca"], pool=pool, on_error="mask")
        plain = open_vca(archive["vca"], pool=pool)
        assert a._file is b._file is plain._file  # the pool's one handle

        out = a.dataset[:, :]
        assert np.isnan(out[:, 240:360]).all()
        assert _spans(a) == [(240, 360)]
        assert _spans(b) == []

        b.read(250, 300)
        assert _spans(b) == [(250, 300)]
        assert _spans(a) == [(240, 360)]

        b.close()
        again = a.read_rows(0, 4, 200, 400)
        assert np.isnan(again[:, 40:160]).all()
        np.testing.assert_array_equal(again[:, :40], archive["full"][:4, 200:240])

        with pytest.raises(FileNotFoundError):
            plain.dataset[:, :]
        assert _spans(plain) == []
        a.close()
        plain.close()


@pytest.mark.parametrize("pooled", [False, True], ids=["private", "pooled"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_masked_read_is_numpy_with_nan_at_the_lost_minutes(
    shared_archive, pooled, data
):
    lost = data.draw(st.sets(st.integers(0, MINUTES - 1), max_size=MINUTES))
    r0 = data.draw(st.integers(0, CHANNELS - 1))
    r1 = data.draw(st.integers(r0 + 1, CHANNELS))
    t0 = data.draw(st.integers(0, MINUTES * SPM - 1))
    t1 = data.draw(st.integers(t0 + 1, MINUTES * SPM))
    step = data.draw(st.integers(1, 150))

    columns = np.arange(t0, t1, step)
    minute = columns // SPM
    expected = shared_archive["full"][r0:r1, t0:t1:step].astype(np.float64)
    expected[:, np.isin(minute, sorted(lost))] = np.nan
    touched = {
        m: (int(columns[minute == m][0]), int(columns[minute == m][-1]) + 1)
        for m in sorted(lost)
        if (minute == m).any()
    }

    paths = shared_archive["paths"]
    for m in lost:
        os.rename(paths[m], paths[m] + ".gone")
    try:
        with FilePool() as pool:
            with open_vca(
                shared_archive["vca"],
                pool=pool if pooled else None,
                on_error="mask",
            ) as handle:
                out = handle.read_strided(r0, r1, t0, t1, step)
                spans = _spans(handle)
    finally:
        for m in lost:
            os.rename(paths[m] + ".gone", paths[m])

    np.testing.assert_array_equal(out, expected)
    assert spans == sorted(touched.values())
