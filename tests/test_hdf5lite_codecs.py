"""Codec layer: registry, roundtrips, and integration with the file API.

The ``transpose-zlib`` encoder picks a deflate method per block of each
byte plane but writes an ordinary zlib stream; the second half of this
file holds it to that: bit-exact round trips, both-way compatibility
with a frozen copy of the whole-buffer encoder it replaced, determinism,
a size guard over a corpus of chunk shapes, the method it picks on the
planes that motivated it, and typed failure on hostile payloads.
"""

import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.graph import Query
from repro.core.operators import DecimateOp
from repro.core.optimizer import execute, optimize
from repro.errors import ConfigError, FormatError, SelectionError
from repro.hdf5lite import (
    BlockCache,
    CacheConfig,
    Codec,
    File,
    available_codecs,
    register_codec,
    resolve_codec,
)
from repro.hdf5lite.codecs import (
    CODEC_ATTR,
    DeltaZlibCodec,
    QuantizeCodec,
    TransposeZlibCodec,
)
from repro.hdf5lite.inspect import describe, verify
from repro.serve import compute_level
from repro.storage.chunks import ArraySource
from repro.synthetic.generator import fig1b_scene, synthesize_scene
from repro.utils.iostats import IOStats
from tests.reference.hdf5lite import parent_decode, parent_encode


@pytest.fixture
def tmpfile(tmp_path):
    return str(tmp_path / "t.h5")


def _signal(shape=(16, 300), dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=shape), axis=-1).astype(dtype)


LOSSLESS = [DeltaZlibCodec(), TransposeZlibCodec()]


class TestRegistry:
    def test_builtin_names(self):
        assert {"delta-zlib", "transpose-zlib", "quantize"} <= set(
            available_codecs()
        )

    def test_spec_roundtrip(self):
        for spec in ["delta-zlib", "transpose-zlib:9", "quantize:0.001"]:
            assert resolve_codec(resolve_codec(spec).spec).spec == resolve_codec(spec).spec

    def test_unknown_codec_is_format_error(self):
        with pytest.raises(FormatError, match="unknown codec"):
            resolve_codec("lz77-nope")

    def test_malformed_params_are_format_errors(self):
        for spec in ["quantize", "quantize:a:b:c", "delta-zlib:x", "delta-zlib:1:2"]:
            with pytest.raises((FormatError, ConfigError)):
                resolve_codec(spec)

    def test_bad_level_rejected(self):
        with pytest.raises(ConfigError):
            DeltaZlibCodec(level=11)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            QuantizeCodec(0.0)

    def test_register_custom_codec(self, tmpfile):
        class Raw(Codec):
            spec = "unit-raw"

            def encode(self, arr):
                return np.ascontiguousarray(arr).tobytes()

            def decode(self, payload, shape, dtype, select=None, verified=False):
                seen.append((select, verified))
                whole = np.frombuffer(payload, dtype=dtype).reshape(shape)
                return whole.copy() if select is None else whole[tuple(select)].copy()

        seen = []
        register_codec("unit-raw", lambda params: Raw())
        assert resolve_codec("unit-raw").spec == "unit-raw"
        with pytest.raises(ConfigError):
            register_codec("bad:name", lambda params: Raw())
        # the extension contract, exercised: readers hand every codec the
        # selection and whether a CRC has passed
        data = _signal()
        with File(tmpfile, "w") as f:
            f.create_dataset(
                "d", data=data, chunks=(8, 128), codec="unit-raw", checksum=True
            )
        with File(tmpfile, "r") as f:
            np.testing.assert_array_equal(f["d"][2:12, 5:290:3], data[2:12, 5:290:3])
            assert seen[-1] == ((slice(0, 4, 1), slice(1, 32, 3)), True)
        with File(tmpfile, "r", cache=CacheConfig()) as f:
            np.testing.assert_array_equal(f["d"][:], data)
            assert seen[-1] == (None, True)

    def test_codec_instance_passthrough(self):
        c = DeltaZlibCodec()
        assert resolve_codec(c) is c


class TestLosslessRoundtrip:
    @pytest.mark.parametrize("codec", LOSSLESS, ids=lambda c: c.spec)
    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int16, np.int32, np.uint8]
    )
    def test_bit_exact(self, codec, dtype):
        arr = (_signal(dtype=np.float64) * 50).astype(dtype)
        out = codec.decode(codec.encode(arr), arr.shape, arr.dtype)
        assert out.dtype == arr.dtype
        np.testing.assert_array_equal(out, arr)

    @pytest.mark.parametrize("codec", LOSSLESS, ids=lambda c: c.spec)
    def test_preserves_nan_inf_bits(self, codec):
        arr = _signal()
        arr[1, 3] = np.nan
        arr[2, 7] = np.inf
        arr[3, 9] = -np.inf
        out = codec.decode(codec.encode(arr), arr.shape, arr.dtype)
        np.testing.assert_array_equal(
            out.view(np.uint32), arr.view(np.uint32)
        )

    @pytest.mark.parametrize("codec", LOSSLESS, ids=lambda c: c.spec)
    def test_empty_and_single(self, codec):
        for arr in [np.zeros((0,), np.float32), np.array([3.5], np.float32)]:
            out = codec.decode(codec.encode(arr), arr.shape, arr.dtype)
            np.testing.assert_array_equal(out, arr)

    @pytest.mark.parametrize("codec", LOSSLESS, ids=lambda c: c.spec)
    def test_truncated_payload_is_format_error(self, codec):
        arr = _signal()
        payload = codec.encode(arr)
        with pytest.raises(FormatError):
            codec.decode(payload[: len(payload) // 2], arr.shape, arr.dtype)
        with pytest.raises(FormatError):
            codec.decode(payload, (arr.shape[0], arr.shape[1] + 1), arr.dtype)

    def test_compresses_smooth_data(self):
        # The point of the layer: fewer stored bytes than raw on real-ish
        # (band-limited, spatially coherent) signals.
        arr = _signal(shape=(64, 2000))
        raw = arr.nbytes
        assert len(TransposeZlibCodec().encode(arr)) < raw


class TestQuantize:
    def test_tolerance_bound_holds(self):
        arr = _signal(dtype=np.float64)
        for tol in [1e-1, 1e-3, 1e-6]:
            c = QuantizeCodec(tol)
            out = c.decode(c.encode(arr), arr.shape, arr.dtype)
            assert np.max(np.abs(out - arr)) <= tol

    def test_non_finite_preserved_exactly(self):
        arr = _signal()
        arr[0, 0] = np.nan
        arr[5, 5] = np.inf
        arr[9, 9] = -np.inf
        c = QuantizeCodec(1e-2)
        out = c.decode(c.encode(arr), arr.shape, arr.dtype)
        assert np.isnan(out[0, 0])
        assert out[5, 5] == np.inf and out[9, 9] == -np.inf
        finite = np.isfinite(arr)
        assert np.max(np.abs(out[finite] - arr[finite])) <= 1e-2

    def test_integer_dtype_rejected(self):
        c = QuantizeCodec(0.5)
        with pytest.raises(FormatError, match="float"):
            c.encode(np.arange(10, dtype=np.int32))
        with pytest.raises(FormatError, match="float"):
            c.decode(b"x", (1,), np.int32)

    def test_overflowing_tolerance_rejected(self):
        c = QuantizeCodec(1e-300)
        with pytest.raises(FormatError, match="overflow"):
            c.encode(np.array([1e30], dtype=np.float64))

    def test_not_lossless_flag(self):
        assert QuantizeCodec(1e-3).lossless is False
        assert DeltaZlibCodec().lossless is True

    def test_beats_lossless_on_noisy_floats(self):
        arr = _signal(shape=(64, 2000))
        q = len(QuantizeCodec(1e-2).encode(arr))
        ll = len(TransposeZlibCodec().encode(arr))
        assert q < ll


class TestFileIntegration:
    @pytest.mark.parametrize(
        "spec", ["delta-zlib", "transpose-zlib", "quantize:0.001"]
    )
    def test_roundtrip_through_file(self, tmpfile, spec):
        data = _signal()
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data, chunks=(8, 128), codec=spec)
        with File(tmpfile, "r") as f:
            ds = f.dataset("d")
            assert ds.attrs[CODEC_ATTR] == resolve_codec(spec).spec
            out = ds.read()
            if resolve_codec(spec).lossless:
                np.testing.assert_array_equal(out, data)
            else:
                assert np.max(np.abs(out - data)) <= 0.001
            # Partial and strided reads decode only what they need but
            # agree with the full read.
            np.testing.assert_array_equal(
                ds[3:11, 50:250:3], out[3:11, 50:250:3]
            )

    def test_codec_requires_chunked_layout(self, tmpfile):
        with File(tmpfile, "w") as f:
            with pytest.raises(FormatError, match="chunked"):
                f.create_dataset("d", data=_signal(), codec="delta-zlib")
            with pytest.raises(FormatError, match="chunked"):
                f.create_dataset(
                    "v", shape=(4, 4), virtual_sources=[], codec="delta-zlib"
                )

    def test_uncompressed_files_unaffected(self, tmpfile):
        data = _signal()
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data, chunks=(8, 128))
        with File(tmpfile, "r") as f:
            ds = f.dataset("d")
            assert ds.codec is None
            assert CODEC_ATTR not in ds.attrs
            np.testing.assert_array_equal(ds.read(), data)

    def test_stored_bytes_shrink(self, tmpfile, tmp_path):
        data = _signal(shape=(64, 2000))
        raw = str(tmp_path / "raw.h5")
        with File(raw, "w") as f:
            f.create_dataset("d", data=data, chunks=(64, 512))
        with File(tmpfile, "w") as f:
            f.create_dataset(
                "d", data=data, chunks=(64, 512), codec="transpose-zlib"
            )
        import os

        assert os.path.getsize(tmpfile) < os.path.getsize(raw)

    def test_unknown_codec_fails_at_read_not_open(self, tmpfile):
        data = _signal()
        with File(tmpfile, "w") as f:
            ds = f.create_dataset("d", data=data, chunks=(8, 128))
            ds.attrs[CODEC_ATTR] = "from-the-future"
        with File(tmpfile, "r") as f:
            ds = f.dataset("d")  # open + metadata access are fine
            assert ds.shape == data.shape
            with pytest.raises(FormatError, match="unknown codec"):
                ds.read()

    def test_write_hyperslab_into_compressed_chunks(self, tmpfile):
        # an encoded chunk is stored once, at creation: writes are refused
        data = _signal()
        with File(tmpfile, "w") as f:
            f.create_dataset("d", data=data, chunks=(8, 128), codec="delta-zlib")
        with File(tmpfile, "r+") as f:
            ds = f.dataset("d")
            index = dict(ds._meta["chunk_index"])
            with pytest.raises(FormatError, match="not chunked"):
                ds[4:12, 100:200] = 0.25
            with pytest.raises(FormatError, match="not chunked"):
                ds[0, ::7] = -1.0
            assert ds._meta["chunk_index"] == index
        with File(tmpfile, "r") as f:
            np.testing.assert_array_equal(f.dataset("d").read(), data)
            assert verify(f) == []

    def test_cache_admits_decoded_chunks_once(self, tmpfile):
        data = _signal(shape=(16, 512))
        with File(tmpfile, "w") as f:
            f.create_dataset(
                "d", data=data, chunks=(16, 128), codec="transpose-zlib"
            )
        stats = IOStats()
        cache = BlockCache(CacheConfig(byte_budget=1 << 22))
        with File(tmpfile, "r", iostats=stats, cache=cache) as f:
            ds = f.dataset("d")
            np.testing.assert_array_equal(ds.read(), data)
            cold_reads = stats.reads
            cold_bytes = stats.bytes_read
            np.testing.assert_array_equal(ds.read(), data)
            # Warm pass: every chunk decoded already, zero backend I/O.
            assert stats.reads == cold_reads
            assert stats.bytes_read == cold_bytes
        # The cold pass read the *encoded* bytes, strictly less than raw.
        assert cold_bytes < data.nbytes

    def test_inspect_describe_and_verify(self, tmpfile):
        data = _signal()
        with File(tmpfile, "w") as f:
            f.create_dataset(
                "d", data=data, chunks=(8, 128), codec="quantize:0.001",
                checksum=True,
            )
        with File(tmpfile, "r") as f:
            text = describe(f)
            assert "codec=quantize:0.001" in text and "(lossy)" in text
            assert verify(f) == []

    def test_describe_says_how_much_reads_in_place(self, tmpfile, monkeypatch):
        noise = np.random.default_rng(2).normal(size=(16, 4096)).astype(np.float32)
        ramp = np.arange(16 * 4096, dtype=np.int32).reshape(16, 4096)
        with File(tmpfile, "w") as f:
            kwargs = dict(chunks=(8, 4096), codec="transpose-zlib", checksum=True)
            f.create_dataset("noise", data=noise, **kwargs)
            f.create_dataset("ramp", data=ramp, **kwargs)
            # a single-stream payload from before planes were told apart
            monkeypatch.setattr(
                TransposeZlibCodec, "encode", lambda self, arr: parent_encode(arr, 6)
            )
            f.create_dataset("old", data=ramp, **kwargs)
            monkeypatch.undo()
            f.create_dataset("delta", data=ramp, chunks=(8, 4096), codec="delta-zlib")
        stats = IOStats()
        with File(tmpfile, "r", iostats=stats) as f:
            before = stats.bytes_read
            lines = {line.split()[0]: line for line in describe(f).splitlines()[1:]}
            # block headers only: listing a file does not read its payloads
            assert stats.bytes_read - before < 1024 < noise.nbytes // 100
            assert verify(f) == []
        assert "codec=transpose-zlib (lossless) stored-in-place=0.75" in lines["noise"]
        assert "stored-in-place=0.00" in lines["ramp"]
        assert "stored-in-place=0.00" in lines["old"]
        # a sequential predictor has nothing to read in place: no payload
        # is fetched to say so
        assert "codec=delta-zlib (lossless)" in lines["delta"]
        assert "stored-in-place" not in lines["delta"]

    def test_verify_flags_missing_enc_sizes(self, tmpfile):
        data = _signal()
        with File(tmpfile, "w") as f:
            ds = f.create_dataset("d", data=data, chunks=(8, 128))
            ds.attrs[CODEC_ATTR] = "delta-zlib"
        with File(tmpfile, "r") as f:
            problems = [p.message for p in verify(f)]
            assert any("chunk_enc" in m for m in problems)


# ---------------------------------------------------------------------------
# transpose-zlib: the plane-aware encoder against the one it replaced
# ---------------------------------------------------------------------------

def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.reshape(-1).view(np.uint8).tobytes()
        == b.reshape(-1).view(np.uint8).tobytes()
    )


CHUNK = (32, 4096)


@pytest.fixture(scope="module")
def corpus() -> dict[str, np.ndarray]:
    """Chunks the encoder must never make larger than the whole-buffer
    deflate did: the harness's scene, a pyramid level of it (float32, as
    levels are stored) and its float64 decimation (as they were), pure
    structure, pure noise, integer layouts, and dead regions in both
    orientations — two of them an eighth of the chunk placed between
    the start, middle and end, where a whole-plane probe would not look."""
    rng = np.random.default_rng(18)
    scene = fig1b_scene(
        n_channels=32, fs=500.0, minutes=1, samples_per_minute=32768, seed=3
    )
    record = synthesize_scene(scene, 1, samples_per_minute=32768)
    f32 = np.ascontiguousarray(record[:, : CHUNK[1]])
    sine = np.tile(
        np.sin(2 * np.pi * 7 * np.arange(CHUNK[1]) / 500.0).astype(np.float32),
        (CHUNK[0], 1),
    )
    (decimated,) = execute(
        optimize(Query.scan(None).then(DecimateOp(4))),
        source=ArraySource(record.astype(np.float64)),
    )
    members = {
        "scene_f32": f32,
        "level_f32": compute_level(record.astype(np.float64), 4),
        "level_f64": decimated.output,
        "white_noise": rng.normal(size=CHUNK).astype(np.float32),
        "sine": sine,
        "sine_plus_noise": (sine + 0.1 * rng.normal(size=CHUNK)).astype(
            np.float32
        ),
        "zeros": np.zeros(CHUNK, np.float32),
        "int16_counts": np.rint(rng.normal(size=CHUNK) * 300).astype(np.int16),
        "int32_ramp": np.arange(CHUNK[0] * CHUNK[1], dtype=np.int32).reshape(
            CHUNK
        ),
        "int32_walk": np.cumsum(
            rng.integers(-50, 51, size=CHUNK), axis=1
        ).astype(np.int32),
        "tile_1000": np.resize(
            rng.normal(size=1000).astype(np.float32), CHUNK
        ),
        "uint8": rng.integers(0, 256, size=CHUNK).astype(np.uint8),
        "chunk_100": f32[:1, :100].copy(),
    }

    def gapped(rows=slice(None), cols=slice(None), fill=0.0):
        out = f32.copy()
        out[rows, cols] = fill
        return out

    members["half_nan_gap"] = gapped(cols=slice(2048, None), fill=np.nan)
    members["eighth_zero_gap"] = gapped(cols=slice(1000, 1512))
    members["dead_8_of_32"] = gapped(rows=slice(12, 20))
    members["dead_eighth_rows_13_17"] = gapped(rows=slice(13, 17))
    members["dead_eighth_cols_300_812"] = gapped(cols=slice(300, 812))
    return members


def plane_methods(codec: TransposeZlibCodec, arr: np.ndarray, plane: int) -> set:
    """Methods :meth:`TransposeZlibCodec.plan` gives byte plane ``plane``."""
    n = arr.size
    lo, hi = plane * n, (plane + 1) * n
    return {
        method
        for start, stop, method in codec.plan(arr)
        if start < hi and stop > lo
    }


class TestTransposeRoundtrip:
    @settings(max_examples=80, deadline=None)
    @given(
        dtype=st.sampled_from(["u1", "<i2", "<i4", "<f4", "<f8", "<c16"]),
        shape=st.one_of(
            st.just(()),
            st.tuples(st.integers(0, 70_000)),
            st.tuples(st.integers(0, 40), st.integers(0, 2100)),
            st.tuples(
                st.integers(0, 6), st.integers(0, 12), st.integers(0, 700)
            ),
        ),
        level=st.sampled_from([0, 1, 6, 9]),
        dead=st.floats(0.0, 1.0),
        layout=st.sampled_from(["contiguous", "strided", "readonly"]),
        seed=st.integers(0, 2**16),
    )
    def test_bit_exact_both_ways(self, dtype, shape, level, dead, layout, seed):
        dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        n = int(np.prod(shape, dtype=np.int64))
        # random bit patterns (NaNs, infinities, denormals included) with
        # a constant run over part of the chunk
        raw = rng.integers(0, 256, size=2 * n * dtype.itemsize, dtype=np.uint8)
        wide = raw.view(dtype)
        wide[: int(dead * n) * 2] = wide[:1] if n else 0
        if layout == "strided":
            arr = wide[::2].reshape(shape)
            assert n < 2 or not arr.flags.c_contiguous
        else:
            arr = wide[:n].reshape(shape).copy()
            arr.flags.writeable = layout != "readonly"
        codec = TransposeZlibCodec(level)
        payload = codec.encode(arr)
        assert payload == codec.encode(arr)  # deterministic
        out = codec.decode(payload, arr.shape, arr.dtype)
        assert same_bits(out, arr)
        # a reader from before the change decodes what we write ...
        assert same_bits(parent_decode(payload, arr.shape, arr.dtype), arr)
        # ... and we decode what it wrote
        old = parent_encode(arr, level)
        assert same_bits(codec.decode(old, arr.shape, arr.dtype), arr)

    @pytest.mark.parametrize("codec", LOSSLESS, ids=lambda c: c.spec)
    def test_complex_and_rank_zero(self, codec):
        for arr in [
            np.array(2.5 - 1j, dtype=np.complex128),
            (_signal(shape=(4, 50)) * (1 + 2j)).astype(np.complex128),
            np.array(7, dtype=np.int16),
        ]:
            out = codec.decode(codec.encode(arr), arr.shape, arr.dtype)
            assert same_bits(out, arr)

    def test_decoded_chunk_is_writable_and_owns_its_bytes(self):
        arr = _signal()
        codec = TransposeZlibCodec()
        out = codec.decode(codec.encode(arr), arr.shape, arr.dtype)
        out[0, 0] = 1.0  # read-modify-write paths patch the decoded chunk
        assert out.flags.c_contiguous


class TestTransposeCompatibility:
    @pytest.mark.parametrize("level", [1, 6])
    def test_corpus_both_ways_and_never_larger(self, corpus, level):
        codec = TransposeZlibCodec(level)
        for name, arr in corpus.items():
            new = codec.encode(arr)
            old = parent_encode(arr, level)
            assert new == codec.encode(arr), name
            assert same_bits(parent_decode(new, arr.shape, arr.dtype), arr), name
            assert same_bits(codec.decode(old, arr.shape, arr.dtype), arr), name
            assert same_bits(codec.decode(new, arr.shape, arr.dtype), arr), name
            # the container is plain zlib: any inflater reads it
            assert zlib.decompress(new) == zlib.decompress(old), name
            assert len(new) <= max(1.005 * len(old), len(old) + 64), (
                name, len(new), len(old),
            )

    def test_spec_registry_and_level_unchanged(self):
        assert available_codecs()[:3] == ["delta-zlib", "quantize", "transpose-zlib"]
        assert TransposeZlibCodec().spec == "transpose-zlib"
        assert TransposeZlibCodec().level == 6
        assert resolve_codec("transpose-zlib:1").spec == "transpose-zlib:1"

    def test_chunk_enc_is_the_payload_length(self, tmpfile, corpus):
        data = corpus["dead_8_of_32"]
        with File(tmpfile, "w") as f:
            ds = f.create_dataset(
                "d", data=data, chunks=(32, 2048), codec="transpose-zlib"
            )
            sizes = dict(ds._meta["chunk_enc"])
        codec = TransposeZlibCodec()
        assert sizes == {
            "0,0": len(codec.encode(data[:, :2048])),
            "0,1": len(codec.encode(data[:, 2048:])),
        }


class TestTransposeMethodSelection:
    def test_noise_planes_are_stored(self, corpus):
        for level in (1, 6):
            codec = TransposeZlibCodec(level)
            for plane in range(3):  # float32 mantissa bytes
                assert plane_methods(codec, corpus["scene_f32"], plane) == {
                    "stored"
                }
            for plane in range(6):  # float64 mantissa bytes
                assert plane_methods(codec, corpus["level_f64"], plane) == {
                    "stored"
                }
            assert plane_methods(codec, corpus["uint8"], 0) == {"stored"}

    def test_exponent_plane_keeps_the_callers_level(self, corpus):
        # the one plane of a float32 chunk that compresses is deflated
        # with LZ at the level asked for: cheaper methods grow files
        codec = TransposeZlibCodec(6)
        arr = corpus["scene_f32"]
        assert plane_methods(codec, arr, 3) == {"lz"}
        exponent = zlib.decompress(codec.encode(arr))[3 * arr.size :]
        level_6 = zlib.compressobj(6, zlib.DEFLATED, -15)
        level_6 = len(level_6.compress(exponent) + level_6.flush())
        # three stored planes (5 bytes of framing per 64 KiB) + that
        assert len(codec.encode(arr)) <= 3 * arr.size + level_6 + 64

    def test_skewed_noise_is_huffman_only(self, corpus):
        # float64 level planes 6/7 at level 1: LZ finds nothing a
        # histogram does not, and level 1's greedy matches cost bytes
        codec = TransposeZlibCodec(1)
        for plane in (6, 7):
            assert plane_methods(codec, corpus["level_f64"], plane) == {
                "huffman"
            }

    def test_float32_level_is_three_stored_planes_and_a_huffman_one(self, corpus):
        # what the pyramid's default codec does with a stored level
        codec = TransposeZlibCodec(1)
        arr = corpus["level_f32"]
        assert arr.dtype == np.float32
        for plane in range(3):
            assert plane_methods(codec, arr, plane) == {"stored"}
        assert plane_methods(codec, arr, 3) == {"huffman"}

    def test_histogram_flat_but_repetitive_plane_is_not_stored(self, corpus):
        # low byte of an int32 ramp: every value equally often, all matches
        codec = TransposeZlibCodec(6)
        assert "stored" not in plane_methods(codec, corpus["int32_ramp"], 0)

    def test_dead_band_does_not_drag_its_plane_to_lz(self, corpus):
        # rows 12..19 of 32 dead: in a mantissa plane the bands that hold
        # them are deflated, the noisy bands on either side stay stored
        codec = TransposeZlibCodec(6)
        arr = corpus["dead_8_of_32"]
        row = arr.shape[1]

        def methods(first_row, last_row):
            return {
                method
                for start, stop, method in codec.plan(arr)
                if start < last_row * row and stop > first_row * row
            }

        assert methods(0, 8) == {"stored"}
        assert "stored" not in methods(12, 20)
        assert methods(24, 32) == {"stored"}

    def test_plan_covers_the_buffer_in_order(self, corpus):
        codec = TransposeZlibCodec(6)
        for arr in corpus.values():
            plan = codec.plan(arr)
            assert plan[0][0] == 0 and plan[-1][1] == arr.nbytes
            assert all(a[1] == b[0] for a, b in zip(plan, plan[1:]))
            assert all(a[2] != b[2] for a, b in zip(plan, plan[1:]))


def deflate_bomb(nbytes: int) -> bytes:
    """A zlib stream of ``nbytes`` zeros, built without holding them."""
    deflater = zlib.compressobj(9)
    block = bytes(1 << 20)
    parts = [deflater.compress(block) for _ in range(nbytes >> 20)]
    parts.append(deflater.flush())
    return b"".join(parts)


ALL_CODECS = [DeltaZlibCodec(), TransposeZlibCodec(), QuantizeCodec(1e-3)]


class TestHostilePayloads:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec)
    def test_overlong_payload_is_refused_without_inflating_it(self, codec):
        shape, dtype = (8, 64), np.dtype(np.float32)
        bomb = deflate_bomb(64 << 20)
        assert len(bomb) < 100_000  # 64 MiB in a payload-sized stream
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                codec.decode(bomb, shape, dtype)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the inflate is capped by what the chunk can hold (quantize: 8 +
        # n * (16 + itemsize)), not by what the stream claims
        assert peak < 1 << 20

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec)
    def test_truncated_and_trailing_bytes_are_format_errors(self, codec):
        arr = _signal()
        payload = codec.encode(arr)
        codec.decode(payload, arr.shape, arr.dtype)
        for bad in (
            payload[:-1],
            payload[: len(payload) // 2],
            payload + b"\x00",
            payload + payload,
            b"",
            b"not a zlib stream",
        ):
            with pytest.raises(FormatError):
                codec.decode(bad, arr.shape, arr.dtype)

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec)
    def test_one_element_too_many_or_few(self, codec):
        arr = _signal(shape=(4, 100))
        payload = codec.encode(arr)
        for shape in [(4, 99), (4, 101), (5, 100), ()]:
            with pytest.raises(FormatError):
                codec.decode(payload, shape, arr.dtype)


# ---------------------------------------------------------------------------
# the selection is an input to decode
# ---------------------------------------------------------------------------

SELECT_CODECS = ["transpose-zlib", "transpose-zlib:1", "delta-zlib", "quantize:1e-3"]


def _content(kind: str, shape, dtype: np.dtype, seed: int) -> np.ndarray:
    """A chunk whose stored prefix is whole or absent (``noise`` by byte
    order and dtype), empty (``constant``, ``ramp``), or followed by a
    compressed and then another stored segment (``dead band``)."""
    n = int(np.prod(shape, dtype=np.int64))
    if kind == "constant":
        values = np.full(n, 3.0)
    elif kind == "ramp":
        values = np.arange(n, dtype=np.float64)
    else:
        values = np.random.default_rng(seed).normal(size=n) * 300
        if kind == "dead band":
            values.reshape(shape or (1,))[shape[0] // 4 : shape[0] // 2 + 1] = 0.0
    if dtype.kind in "iu":
        values = values.astype(np.int64)
    with np.errstate(over="ignore"):
        return values.astype(dtype).reshape(shape)


@st.composite
def chunk_and_select(draw):
    shape = draw(
        st.one_of(
            st.sampled_from([(1,), (0,), (3, 0, 5), (1, 1, 1), (48, 4096), (200_000,)]),
            st.tuples(st.integers(1, 3000)),
            st.tuples(st.integers(1, 40), st.integers(1, 600)),
            st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 300)),
        )
    )
    select = []
    for dim in shape:
        if draw(st.booleans()):
            select.append(slice(None))
            continue
        start = draw(st.integers(0, dim))
        stop = draw(st.integers(start, dim))
        select.append(slice(start, stop, draw(st.sampled_from([1, 2, 3, 8, 1000]))))
    return shape, tuple(select)


class TestSelectionIsADecodeInput:
    @settings(max_examples=150, deadline=None)
    @given(
        spec=st.sampled_from(SELECT_CODECS),
        dtype=st.sampled_from(["<f4", "<f8", ">f4", "<i2", "u1", "<c8"]),
        chunk=chunk_and_select(),
        kind=st.sampled_from(["noise", "constant", "ramp", "dead band"]),
        verified=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_decode_of_a_selection_is_the_selection_of_the_decode(
        self, spec, dtype, chunk, kind, verified, seed
    ):
        dtype = np.dtype(dtype)
        if spec.startswith("quantize"):
            assume(dtype.kind == "f")
        shape, select = chunk
        codec = resolve_codec(spec)
        payload = codec.encode(_content(kind, shape, dtype, seed))
        whole = codec.decode(payload, shape, dtype)
        got = codec.decode(payload, shape, dtype, select=select, verified=verified)
        assert same_bits(got, whole[select])
        assert got.flags.c_contiguous and got.flags.writeable
        # never a view of the payload (stored planes are read in place)
        assert not np.shares_memory(got, np.frombuffer(payload, np.uint8))
        got[...] = 0  # ... nor of anything read-only
        everything = codec.decode(payload, shape, dtype, verified=verified)
        assert same_bits(everything, whole) and everything.flags.writeable

    def test_the_corpus_has_every_prefix_shape(self, corpus):
        # what the generated test relies on: the walker meets an empty
        # prefix, a whole one, and one that stops at a compressed segment
        # with stored ones behind it
        codec = TransposeZlibCodec()

        def prefix(arr):
            return sum(length for _at, length in stored_blocks(codec.encode(arr)))

        assert prefix(corpus["int32_ramp"]) == 0
        assert prefix(corpus["uint8"]) == corpus["uint8"].nbytes
        assert prefix(corpus["scene_f32"]) == 3 * corpus["scene_f32"].size
        dead = _content("dead band", (48, 4096), np.dtype("<f4"), 1)
        methods = [method for _start, _stop, method in codec.plan(dead)]
        assert methods[0] == "stored" and "stored" in methods[2:]
        assert 0 < prefix(dead) < dead.size

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.spec)
    def test_selections_that_are_not_lattices_are_refused(self, codec):
        arr = _signal()
        payload = codec.encode(arr)
        for select in [
            (slice(None, None, -1),),
            (slice(0, 4), slice(0, 4), slice(0, 4)),
            (3, slice(None)),
        ]:
            with pytest.raises(SelectionError):
                codec.decode(payload, arr.shape, arr.dtype, select=select)

    @pytest.mark.parametrize("verified", [False, True])
    def test_pre_plane_payloads_decode_under_any_select(self, verified):
        # A single-compressor stream, as files held before planes were told
        # apart.  One opens with a compressed block (empty prefix); the
        # other is noise planes followed by a plane that repeats them, so
        # its compressed blocks reach back into its stored ones.
        rng = np.random.default_rng(24)
        n = 100_000
        planes = rng.integers(0, 256, size=(4, n), dtype=np.uint8)
        planes[3] = np.resize(planes[2, -3000:], n)
        looks_back = np.ascontiguousarray(planes.T).view("<f4").reshape(100, 1000)
        smooth = np.arange(n, dtype=np.int32).reshape(100, 1000)
        codec = TransposeZlibCodec()
        for arr, stored in ((smooth, False), (looks_back, True)):
            payload = parent_encode(arr, 6)
            assert bool(stored_blocks(payload)) == stored
            for select in [
                None,
                (slice(24, 48), slice(None)),
                (slice(None), slice(0, 1000, 8)),
                (slice(90, 100, 3), slice(5, 900, 7)),
                (slice(0, 1), slice(0, 1)),
            ]:
                got = codec.decode(
                    payload, arr.shape, arr.dtype, select=select, verified=verified
                )
                assert same_bits(got, arr if select is None else arr[select])
        # the premise: carried on from where the stored blocks end, an
        # inflater that was not handed them cannot resolve those matches
        at, length = stored_blocks(payload)[-1]
        at += 5 + length
        with pytest.raises(zlib.error, match="distance too far back"):
            zlib.decompressobj(-zlib.MAX_WBITS).decompress(payload[at:])


def stored_blocks(payload: bytes) -> list[tuple[int, int]]:
    """``(header offset, LEN)`` of the stored blocks a zlib stream opens
    with — the test's own walk, independent of the decoder's."""
    blocks, at = [], 2
    while at < len(payload) and not payload[at] >> 1 & 3:
        length = int.from_bytes(payload[at + 1 : at + 3], "little")
        blocks.append((at, length))
        at += 5 + length
    return blocks


def _all_stored(data: bytes, final: bool = True) -> bytes:
    """``data`` as a zlib stream of stored blocks only."""
    deflater = zlib.compressobj(0, zlib.DEFLATED, -zlib.MAX_WBITS)
    body = deflater.compress(data) + deflater.flush(
        zlib.Z_FINISH if final else zlib.Z_SYNC_FLUSH
    )
    return b"\x78\x9c" + body + zlib.adler32(data).to_bytes(4, "big")


TODAYS_MESSAGES = (
    "undecodable transpose-zlib chunk|transpose-zlib chunk is truncated, holds "
    "more than|transpose-zlib chunk holds"
)


class TestHostilePayloadsOnTheWalker:
    """``verified=True`` trusts the payload's *bytes*, never its structure:
    an attacker can make a CRC match."""

    SHAPE, DTYPE = (16, 8192), np.dtype("<f4")
    ROWS = (slice(4, 8), slice(None))

    @pytest.fixture(scope="class")
    def payload(self):
        arr = np.random.default_rng(7).normal(size=self.SHAPE).astype(self.DTYPE)
        payload = TransposeZlibCodec().encode(arr)
        blocks = stored_blocks(payload)
        assert sum(length for _at, length in blocks) == 3 * arr.size
        assert len(blocks) >= 6
        return payload

    def refused(self, bad: bytes, select=None, shape=None):
        """``bad`` is a FormatError either way, in bounded time and —
        verified — within selection + needed tail + 64 KiB."""
        shape = shape or self.SHAPE
        codec = TransposeZlibCodec()
        with pytest.raises(FormatError, match=TODAYS_MESSAGES):
            codec.decode(bad, shape, self.DTYPE, select=select)
        n = int(np.prod(shape))
        rows = shape[0] if select is None else select[0].stop
        selected = n * 4 if select is None else (rows - select[0].start) * shape[1] * 4
        # what the selection needs past the stored blocks ``bad`` opens with
        prefix = sum(length for _at, length in stored_blocks(bad))
        tail = max(0, 3 * n + rows * shape[1] - prefix)
        tracemalloc.start()
        began = time.perf_counter()
        try:
            with pytest.raises(FormatError):
                codec.decode(bad, shape, self.DTYPE, select=select, verified=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - began < 1.0
        assert peak <= selected + tail + (64 << 10)

    def test_truncation_around_every_stored_block_boundary(self, payload):
        for at, length in stored_blocks(payload):
            for cut in (at - 1, at, at + 1, at + 5, at + 5 + length - 1):
                self.refused(payload[:cut])
                # the planes before the cut would serve these rows; the
                # stream is still one that never reaches its final block
                self.refused(payload[:cut], self.ROWS)

    def test_broken_stored_block_headers(self, payload):
        blocks = stored_blocks(payload)
        for at, _length in (blocks[0], blocks[2], blocks[-1]):
            for offset, xor in [(3, 0x01), (1, 0x80), (0, 0x06), (0, 0x01)]:
                # NLEN bit, LEN bit, reserved BTYPE = 3, BFINAL before the end
                bad = bytearray(payload)
                bad[at + offset] ^= xor
                self.refused(bytes(bad))
        bad = bytearray(payload)
        bad[blocks[0][0]] ^= 0x06
        self.refused(bytes(bad), self.ROWS)

    def test_stored_block_running_past_the_payload(self, payload):
        at, length = stored_blocks(payload)[1]
        self.refused(payload[: at + 5 + length // 2])
        self.refused(b"\x78\x9c\x00\xff\xff\x00\x00" + bytes(100))

    def test_stored_total_exceeding_the_chunk(self, payload):
        rows, cols = self.SHAPE
        self.refused(payload, shape=(rows // 4, cols))  # 3 planes > 1 chunk
        data = bytes(rows * cols * 4 + 1)
        self.refused(_all_stored(data))
        self.refused(_all_stored(data[:-2]))  # ... and BFINAL a byte short

    def test_bad_stream_headers(self, payload):
        for header in [
            b"\x79\x9c",  # CM = 9
            b"\x78\x9d",  # FCHECK
            b"\x88\x1c",  # CINFO = 8, check bits right
            b"\x78\xbb",  # FDICT, check bits right
        ]:
            self.refused(header + payload[2:])
        assert int.from_bytes(b"\x88\x1c", "big") % 31 == 0
        assert int.from_bytes(b"\x78\xbb", "big") % 31 == 0
        self.refused(payload[:2])
        self.refused(payload[:1])
        self.refused(b"")

    def test_tail_corrupt_or_ending_early(self, payload):
        at, length = stored_blocks(payload)[-1]
        tail = at + 5 + length
        assert len(payload) - tail > 1000
        for cut in (tail + 1, tail + 500, len(payload) - 5, len(payload) - 1):
            self.refused(payload[:cut])
        self.refused(payload + b"\x00")
        bad = bytearray(payload)
        bad[tail] ^= 0x06  # the compressed block's type, to the reserved one
        self.refused(bytes(bad))
        self.refused(bytes(bad), self.ROWS)
        # rows whose planes end before the damage still decode: the reader
        # goes only as far as the selection needs
        early = (slice(0, 2), slice(None))
        bad = payload[: len(payload) - 200]
        got = TransposeZlibCodec().decode(
            bad, self.SHAPE, self.DTYPE, select=early, verified=True
        )
        whole = TransposeZlibCodec().decode(payload, self.SHAPE, self.DTYPE)
        assert same_bits(got, whole[early])

    def test_whole_stored_payloads_end_where_they_should(self):
        arr = np.random.default_rng(3).integers(0, 256, size=(40, 5000)).astype(np.uint8)
        payload = TransposeZlibCodec().encode(arr)
        assert stored_blocks(payload)[-1][0] + 5 + stored_blocks(payload)[-1][1] == (
            len(payload) - 4
        )
        codec = TransposeZlibCodec()
        got = codec.decode(payload, arr.shape, arr.dtype, verified=True)
        assert same_bits(got, arr)
        for bad in (payload[:-1], payload + b"\x00", payload[:-4]):
            with pytest.raises(FormatError):
                codec.decode(bad, arr.shape, arr.dtype, verified=True)

    @pytest.mark.parametrize(
        "codec", [DeltaZlibCodec(), QuantizeCodec(1e-3)], ids=lambda c: c.spec
    )
    def test_sequential_codecs_check_the_whole_stream_whatever_is_selected(self, codec):
        # every sample depends on all earlier ones and no workload measures
        # an early stop: verified or not, the stream is inflated to its end
        # (Adler-32, exact length, nothing trailing) and the lattice copied
        arr = _signal(shape=(64, 1000))
        payload = codec.encode(arr)
        rows = (slice(8, 16, 3), slice(1, 900, 7))
        bomb = deflate_bomb(64 << 20)
        for verified in (False, True):
            for bad in (payload[: len(payload) // 2], payload[:-1], payload + b"\x00"):
                with pytest.raises(FormatError):
                    codec.decode(bad, arr.shape, arr.dtype, select=rows, verified=verified)
            tracemalloc.start()
            try:
                with pytest.raises(FormatError):
                    codec.decode(
                        bomb, (64, 16), np.float32, select=rows, verified=verified
                    )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_quantize_refuses_a_sample_index_outside_the_chunk(self):
        codec = QuantizeCodec(1e-3)
        arr = np.array([[1.0, np.nan, 2.0, 3.0]], dtype=np.float32)
        raw = bytearray(zlib.decompress(codec.encode(arr)))
        for index in (4, -1, 2**62):
            raw[8:16] = np.int64(index).tobytes()
            with pytest.raises(FormatError, match="outside the chunk"):
                codec.decode(zlib.compress(bytes(raw)), arr.shape, arr.dtype)
