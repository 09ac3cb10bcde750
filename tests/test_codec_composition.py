"""Codec × checksum × cache composition across the batch read paths.

The layering contract: CRC32 sidecars checksum the *encoded* chunk
payloads, so a bit flipped on disk raises
:class:`~repro.errors.CorruptDataError` before any decode runs; the
block cache admits *decoded* chunks, so corruption checks and
decompression both happen once per cached block; and the lossless codec
path is bit-exact end-to-end through every reader — collective,
communication-avoiding, an LAV view (``SourceView``), and the streamed
DASSA facade — as well as Algorithms 2 and 3 (streamed and materialized).
"""

import numpy as np
import pytest

from repro.core.framework import DASSA
from repro.core.interferometry import InterferometryConfig
from repro.core.local_similarity import LocalSimilarityConfig
from repro.errors import CorruptDataError, MPIError
from repro.faults.inject import FaultInjector, clear_read_faults
from repro.hdf5lite import File
from repro.hdf5lite.codecs import TransposeZlibCodec
from repro.simmpi import run_spmd
from repro.storage.chunks import SourceView
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.storage.parallel_read import (
    read_vca_collective_per_file,
    read_vca_communication_avoiding,
)
from repro.storage.vca import create_vca, open_vca

CODEC = "transpose-zlib"
VICTIM = 2  # source file index; covers VCA samples [240, 360)
V0, V1 = 240, 360


@pytest.fixture(autouse=True)
def _clean_hooks():
    yield
    clear_read_faults()


def _write_fileset(directory, codec, checksum=True, chunks=(16, 64)):
    directory.mkdir(exist_ok=True)
    rng = np.random.default_rng(7)
    stamp = "170620100545"
    paths, blocks = [], []
    for _ in range(6):
        data = rng.normal(size=(16, 120)).astype(np.float32)
        metadata = DASMetadata(
            sampling_frequency=2.0,
            spatial_resolution=2.0,
            timestamp=stamp,
            n_channels=16,
        )
        path = str(directory / das_filename(stamp))
        write_das_file(
            path, data, metadata, channel_groups=False,
            checksum=checksum, chunks=chunks, codec=codec,
        )
        paths.append(path)
        blocks.append(data)
        stamp = timestamp_add_seconds(stamp, 60)
    return paths, np.concatenate(blocks, axis=1)


@pytest.fixture
def compressed(tmp_path):
    """Six checksummed *compressed* per-minute files merged into one VCA."""
    paths, full = _write_fileset(tmp_path / "das", CODEC)
    vca = create_vca(str(tmp_path / "v.h5"), paths)
    return {"vca": vca, "paths": paths, "full": full}


class TestBitFlipFailsFastOnEveryPath:
    """A bit flipped in *encoded* bytes must surface as CorruptDataError
    (CRC over the payload), never as a decode failure."""

    def _flip(self, compressed):
        FaultInjector(seed=13).bit_flip(compressed["paths"][VICTIM])

    def test_collective_per_file(self, compressed):
        self._flip(compressed)

        def failfast(comm):
            return read_vca_collective_per_file(comm, compressed["vca"])

        with pytest.raises(MPIError) as err:
            run_spmd(failfast, 2)
        assert isinstance(err.value.__cause__, CorruptDataError)

    def test_communication_avoiding(self, compressed):
        self._flip(compressed)

        def failfast(comm):
            return read_vca_communication_avoiding(comm, compressed["vca"])

        with pytest.raises(MPIError) as err:
            run_spmd(failfast, 4)
        assert isinstance(err.value.__cause__, CorruptDataError)

    def test_lav_view(self, compressed):
        self._flip(compressed)
        with open_vca(compressed["vca"]) as handle:
            with pytest.raises(CorruptDataError):
                SourceView(handle).read(0, handle.n_samples)

    def test_streamed_dassa(self, compressed):
        self._flip(compressed)
        with pytest.raises(CorruptDataError):
            DASSA(threads=1).sta_lta(
                compressed["vca"], 4, 16, chunk_samples=200
            )

    def test_masked_mode_reports_gap_and_stays_bit_exact(self, compressed):
        self._flip(compressed)

        with open_vca(compressed["vca"], on_error="mask") as handle:
            out = handle.read(0, handle.n_samples)
            spans = sorted((s.t0, s.t1) for s in handle.gaps)
        mask = np.zeros(compressed["full"].shape[1], dtype=bool)
        mask[V0:V1] = True
        # Lossless codec: the surviving samples are *bit-identical*.
        np.testing.assert_array_equal(
            out[:, ~mask], compressed["full"][:, ~mask]
        )
        assert np.isnan(out[:, mask]).all()
        assert spans == [(V0, V1)]


class TestCorruptPayloadNeverReachesDecode:
    def test_crc_precedes_decode(self, tmp_path, monkeypatch):
        data = np.random.default_rng(3).normal(size=(8, 256)).astype(np.float32)
        path = str(tmp_path / "x.h5")
        with File(path, "w") as f:
            f.create_dataset(
                "d", data=data, chunks=(8, 64), codec=CODEC, checksum=True
            )
        with File(path, "r") as f:
            offset = int(f.dataset("d")._meta["chunk_index"]["0,1"])
            enc = int(f.dataset("d")._meta["chunk_enc"]["0,1"])
        with open(path, "r+b") as fh:
            fh.seek(offset + enc // 2)
            b = fh.read(1)[0]
            fh.seek(offset + enc // 2)
            fh.write(bytes([b ^ 0x40]))

        calls = []
        original = TransposeZlibCodec.decode

        def spy(self, payload, shape, dtype):
            calls.append(bytes(payload))
            return original(self, payload, shape, dtype)

        monkeypatch.setattr(TransposeZlibCodec, "decode", spy)
        with File(path, "r") as f:
            ds = f.dataset("d")
            with pytest.raises(CorruptDataError, match="crc32 mismatch"):
                ds[:, 64:128]  # exactly the corrupted chunk
        assert calls == []  # verification fired before any decode


class TestLosslessBitExactThroughAlgorithms:
    """Acceptance: Alg 2 and Alg 3 produce identical bits whether the
    VCA's source files are raw or losslessly compressed — streamed and
    materialized."""

    @pytest.fixture
    def pair(self, tmp_path):
        raw_paths, full = _write_fileset(tmp_path / "raw", None)
        enc_paths, full2 = _write_fileset(tmp_path / "enc", CODEC)
        np.testing.assert_array_equal(full, full2)
        return {
            "raw": create_vca(str(tmp_path / "raw.h5"), raw_paths),
            "enc": create_vca(str(tmp_path / "enc.h5"), enc_paths),
            "full": full,
        }

    def test_full_vca_read_is_identical_and_moves_fewer_backend_bytes(self, pair):
        """Same chunking on both sides, so the byte counts isolate the codec."""
        from repro.utils.iostats import IOStats

        read, moved = {}, {}
        for name in ("raw", "enc"):
            stats = IOStats()
            with open_vca(pair[name], iostats=stats) as handle:
                read[name] = handle.dataset.read()
            moved[name] = stats.full_snapshot()["bytes_read"]
        np.testing.assert_array_equal(read["enc"], read["raw"])
        np.testing.assert_array_equal(read["raw"], pair["full"])
        assert 0 < moved["enc"] < moved["raw"]

    def test_alg2_local_similarity(self, pair):
        cfg = LocalSimilarityConfig(
            half_window=20, channel_offset=1, half_lag=4, stride=20
        )
        d = DASSA(threads=1)
        ref, centers_ref = d.local_similarity(pair["raw"], cfg, chunk_samples=150)
        out, centers = d.local_similarity(pair["enc"], cfg, chunk_samples=150)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(centers, centers_ref)
        # Materialized (single chunk spanning the record): raw and
        # compressed inputs still produce identical bits.
        ref_m, _ = d.local_similarity(pair["raw"], cfg, chunk_samples=720)
        out_m, _ = d.local_similarity(pair["enc"], cfg, chunk_samples=720)
        np.testing.assert_array_equal(out_m, ref_m)

    def test_alg3_interferometry(self, pair):
        cfg = InterferometryConfig(fs=2.0, band=(0.1, 0.8), resample_q=1)
        d = DASSA(threads=1)
        ref = d.interferometry(pair["raw"], cfg, chunk_samples=150)
        out = d.interferometry(pair["enc"], cfg, chunk_samples=150)
        np.testing.assert_array_equal(out, ref)
        ref_m = d.interferometry(pair["raw"], cfg, chunk_samples=720)
        out_m = d.interferometry(pair["enc"], cfg, chunk_samples=720)
        np.testing.assert_array_equal(out_m, ref_m)
