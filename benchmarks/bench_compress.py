"""Compression benchmark: bandwidth bought vs CPU spent (Fig. 9 direction).

The paper's I/O argument is bytes moved per analysis pass; the codec
layer shrinks those bytes at the cost of decode CPU.  This benchmark
measures, on a Fig. 1b-style synthetic scene written as per-minute DAS
files:

* **per-codec microbenchmarks** — compression ratio and encode/decode
  throughput on the raw scene array;
* **backend bytes** — a full VCA read of the same workload against raw
  and compressed source files (identical chunking), counted by
  :class:`~repro.utils.iostats.IOStats`: compressed files must read
  strictly fewer backend bytes, and the lossless roundtrip must be
  bit-identical;
* **end-to-end Alg 2 / Alg 3 wall time** on cold and warm cache — the
  BlockCache admits *decoded* chunks, so the warm pass pays neither I/O
  nor decode;
* a **Lustre-model projection** (`repro.cluster.storage.StorageModel`)
  of per-rank I/O time raw vs compressed+decode across rank counts —
  compression shifts the point where the file system saturates;
* the **plane-encoder gate** — `transpose-zlib` deflates each byte plane
  by the cheapest method that is not larger, where a whole-buffer
  ``zlib.compress`` spends most of its time proving mantissa bytes are
  noise.  On a float32 scene chunk at level 6 (a minute-file chunk) and
  a float64 pyramid-level chunk at level 1, the codec must be no larger
  than 1.005x that reference and no slower to encode (best of several
  repeats), so CI fails if a later change starts deflating noise again.

Results land in ``BENCH_compress.json`` at the repo root.

Usage::

    python benchmarks/bench_compress.py --smoke   # small sizes, CI-friendly
    python benchmarks/bench_compress.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import zlib

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster.storage import StorageModel  # noqa: E402
from repro.core.framework import DASSA  # noqa: E402
from repro.core.interferometry import InterferometryConfig  # noqa: E402
from repro.core.local_similarity import LocalSimilarityConfig  # noqa: E402
from repro.hdf5lite import BlockCache, CacheConfig, FilePool, resolve_codec  # noqa: E402
from repro.serve import compute_level  # noqa: E402
from repro.storage.dasfile import das_filename, write_das_file  # noqa: E402
from repro.storage.metadata import DASMetadata, timestamp_add_seconds  # noqa: E402
from repro.storage.vca import VCAHandle, create_vca  # noqa: E402
from repro.synthetic.generator import fig1b_scene, synthesize_scene  # noqa: E402
from repro.utils.iostats import IOStats  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

CODECS = ["delta-zlib", "transpose-zlib", "quantize:0.001"]


def build_fileset(
    root: str,
    data: np.ndarray,
    minutes: int,
    spm: int,
    fs: float,
    chunks: tuple[int, int],
    codec: str | None,
) -> str:
    """Write the scene as per-minute files (identical chunking across
    variants, so byte counts isolate the codec); returns a VCA path."""
    subdir = os.path.join(root, codec.replace(":", "_") if codec else "raw")
    os.makedirs(subdir)
    stamp = "170620100545"
    paths = []
    for minute in range(minutes):
        block = data[:, minute * spm : (minute + 1) * spm]
        path = os.path.join(subdir, das_filename(stamp))
        write_das_file(
            path,
            block,
            DASMetadata(
                sampling_frequency=fs,
                spatial_resolution=2.0,
                timestamp=stamp,
                n_channels=data.shape[0],
            ),
            channel_groups=False,
            checksum=True,
            chunks=chunks,
            codec=codec,
        )
        paths.append(path)
        stamp = timestamp_add_seconds(stamp, 60)
    return create_vca(os.path.join(subdir, "vca.h5"), paths)


def micro(data: np.ndarray) -> dict:
    """Per-codec ratio and encode/decode throughput on the raw array."""
    out = {}
    raw_nbytes = data.nbytes
    for spec in CODECS:
        codec = resolve_codec(spec)
        t0 = time.perf_counter()
        payload = codec.encode(data)
        enc_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        decoded = codec.decode(payload, data.shape, data.dtype)
        dec_s = time.perf_counter() - t0
        if codec.lossless:
            np.testing.assert_array_equal(decoded, data)
        out[spec] = {
            "lossless": codec.lossless,
            "ratio": raw_nbytes / len(payload),
            "encoded_nbytes": len(payload),
            "encode_MBps": raw_nbytes / enc_s / 2**20 if enc_s > 0 else None,
            "decode_MBps": raw_nbytes / dec_s / 2**20 if dec_s > 0 else None,
        }
    return out


def reference_encode(arr: np.ndarray, level: int) -> bytes:
    """Byte transpose + one whole-buffer deflate: what `transpose-zlib`
    did before it told planes apart, and what its payloads must still
    decode as."""
    planes = arr.reshape(-1).view(np.uint8).reshape(-1, arr.dtype.itemsize)
    return zlib.compress(np.ascontiguousarray(planes.T).tobytes(), level)


def reference_decode(payload: bytes, shape: tuple, dtype: np.dtype) -> np.ndarray:
    planes = np.frombuffer(zlib.decompress(payload), dtype=np.uint8)
    planes = planes.reshape(dtype.itemsize, -1)
    return np.ascontiguousarray(planes.T).reshape(-1).view(dtype).reshape(shape)


def best_of_interleaved(fns: dict, repeats: int = 7) -> dict:
    """Best wall time of each callable, one call of each per round, so a
    slow spell of the machine falls on every side alike."""
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def plane_encoder_gate() -> dict:
    """`transpose-zlib` against the whole-buffer reference on the two
    chunk kinds an archive build encodes; asserts size and encode time."""
    scene = fig1b_scene(
        n_channels=32, fs=500.0, minutes=1, samples_per_minute=32768, seed=1
    )
    record = synthesize_scene(scene, 1, samples_per_minute=32768)
    cases = {
        "float32_scene_level6": (np.ascontiguousarray(record[:, :4096]), 6),
        "float64_level_level1": (
            compute_level(record.astype(np.float64), 4), 1
        ),
    }
    out = {}
    for name, (chunk, level) in cases.items():
        codec = resolve_codec(f"transpose-zlib:{level}")
        payload = codec.encode(chunk)
        reference = reference_encode(chunk, level)
        # one container: each side's decoder reads the other's payload
        np.testing.assert_array_equal(
            reference_decode(payload, chunk.shape, chunk.dtype), chunk
        )
        np.testing.assert_array_equal(
            codec.decode(reference, chunk.shape, chunk.dtype), chunk
        )
        mb = chunk.nbytes / 2**20
        row = {
            "shape": list(chunk.shape),
            "dtype": str(chunk.dtype),
            "level": level,
            "methods": sorted({m for _, _, m in codec.plan(chunk)}),
        }
        seconds = best_of_interleaved({
            ("codec", "encode"): lambda: codec.encode(chunk),
            ("reference", "encode"): lambda: reference_encode(chunk, level),
            ("codec", "decode"): lambda: codec.decode(
                payload, chunk.shape, chunk.dtype
            ),
            ("reference", "decode"): lambda: reference_decode(
                reference, chunk.shape, chunk.dtype
            ),
        })
        for label, stored in (("codec", payload), ("reference", reference)):
            row[label] = {
                "encoded_nbytes": len(stored),
                "ratio": len(stored) / chunk.nbytes,
                "encode_MBps": mb / seconds[label, "encode"],
                "decode_MBps": mb / seconds[label, "decode"],
            }
        row["size_vs_reference"] = len(payload) / len(reference)
        row["encode_time_vs_reference"] = (
            row["reference"]["encode_MBps"] / row["codec"]["encode_MBps"]
        )
        assert row["size_vs_reference"] <= 1.005, (name, row)
        assert row["encode_time_vs_reference"] <= 1.0, (name, row)
        out[name] = row
    return out


def full_read(vca_path: str) -> tuple[np.ndarray, dict, float]:
    stats = IOStats()
    t0 = time.perf_counter()
    with VCAHandle(vca_path, iostats=stats) as vca:
        arr = vca.dataset.read()
    return arr, stats.snapshot(), time.perf_counter() - t0


def alg_walltimes(vca_path: str, fs: float, chunk_samples: int) -> dict:
    """Alg 2 + Alg 3 wall time, cold cache then warm cache (shared
    BlockCache + FilePool; decoded chunks are admitted, so the warm pass
    pays neither backend I/O nor decode CPU)."""
    sim_cfg = LocalSimilarityConfig(
        half_window=20, channel_offset=1, half_lag=4, stride=20
    )
    int_cfg = InterferometryConfig(fs=fs, band=(0.05 * fs, 0.4 * fs), resample_q=1)
    stats = IOStats()
    cache = BlockCache(CacheConfig(byte_budget=256 * 2**20), iostats=stats)
    d = DASSA(threads=1)
    out: dict = {}
    with FilePool(iostats=stats, cache=cache) as pool:
        with VCAHandle(vca_path, iostats=stats, pool=pool, cache=cache) as vca:
            for phase in ("cold", "warm"):
                t0 = time.perf_counter()
                d.local_similarity(vca, sim_cfg, chunk_samples=chunk_samples)
                alg2 = time.perf_counter() - t0
                t0 = time.perf_counter()
                d.interferometry(vca, int_cfg, chunk_samples=chunk_samples)
                alg3 = time.perf_counter() - t0
                out[phase] = {
                    "alg2_wall_s": alg2,
                    "alg3_wall_s": alg3,
                    "bytes_read_so_far": stats.snapshot()["bytes_read"],
                }
    return out


def lustre_projection(
    raw: dict, enc: dict, decode_MBps: float, ranks=(4, 16, 64, 256, 1024)
) -> dict:
    """Fig. 9-style model: per-rank time to read the workload raw vs
    compressed-then-decoded, on the Lustre cost model.  Compression cuts
    bytes and IOPS; decode adds CPU that does *not* contend for OSTs."""
    model = StorageModel()
    decode_bps = decode_MBps * 2**20
    points = []
    for r in ranks:
        io_raw = model.sequential_read_time(
            raw["bytes_read"] // r, max(1, raw["reads"] // r), max(1, raw["opens"] // r)
        )
        io_raw = max(io_raw, raw["bytes_read"] / model.aggregate_bandwidth)
        io_enc = model.sequential_read_time(
            enc["bytes_read"] // r, max(1, enc["reads"] // r), max(1, enc["opens"] // r)
        )
        io_enc = max(io_enc, enc["bytes_read"] / model.aggregate_bandwidth)
        decode = (raw["bytes_read"] / r) / decode_bps
        points.append(
            {
                "ranks": r,
                "raw_io_s": io_raw,
                "compressed_io_s": io_enc,
                "decode_s": decode,
                "compressed_total_s": io_enc + decode,
                "compressed_wins": io_enc + decode < io_raw,
            }
        )
    return {"model": "lustre-default", "points": points}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="small sizes for CI")
    ap.add_argument("--minutes", type=int, default=None)
    ap.add_argument("--channels", type=int, default=None)
    ap.add_argument("--spm", type=int, default=None, help="samples per minute-file")
    ap.add_argument(
        "--codec", default="transpose-zlib",
        help="codec for the end-to-end comparison (default: transpose-zlib)",
    )
    ap.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, "BENCH_compress.json"),
        help="where to write the JSON results",
    )
    args = ap.parse_args()

    if args.smoke:
        minutes = args.minutes or 4
        channels = args.channels or 32
        spm = args.spm or 600
    else:
        minutes = args.minutes or 12
        channels = args.channels or 128
        spm = args.spm or 3000

    fs = 50.0
    chunk_samples_file = min(spm, 2048)
    chunks = (channels, chunk_samples_file)
    scene = fig1b_scene(
        n_channels=channels, fs=fs, minutes=minutes, samples_per_minute=spm
    )
    data = synthesize_scene(scene, minutes, samples_per_minute=spm)

    results: dict = {
        "bench": "compress",
        "params": {
            "minutes": minutes,
            "channels": channels,
            "samples_per_minute": spm,
            "fs": fs,
            "chunks": list(chunks),
            "codec": args.codec,
            "raw_nbytes": int(data.nbytes),
        },
        "codecs": micro(data),
        "plane_encoder": plane_encoder_gate(),
    }

    with tempfile.TemporaryDirectory(prefix="bench-compress-") as root:
        vca_raw = build_fileset(root, data, minutes, spm, fs, chunks, None)
        vca_enc = build_fileset(root, data, minutes, spm, fs, chunks, args.codec)

        raw_arr, raw_stats, raw_wall = full_read(vca_raw)
        enc_arr, enc_stats, enc_wall = full_read(vca_enc)

        # Acceptance: lossless roundtrip through storage is bit-identical,
        # and the compressed workload moves strictly fewer backend bytes.
        if resolve_codec(args.codec).lossless:
            np.testing.assert_array_equal(enc_arr, raw_arr)
            np.testing.assert_array_equal(raw_arr, data)
        assert enc_stats["bytes_read"] < raw_stats["bytes_read"], (
            enc_stats["bytes_read"],
            raw_stats["bytes_read"],
        )

        results["vca_full_read"] = {
            "raw": {**raw_stats, "wall_s": raw_wall},
            "compressed": {**enc_stats, "wall_s": enc_wall},
            "bytes_saved": raw_stats["bytes_read"] - enc_stats["bytes_read"],
            "bytes_ratio": raw_stats["bytes_read"] / enc_stats["bytes_read"],
        }

        stream_chunk = min(minutes * spm, 4 * chunk_samples_file)
        results["end_to_end"] = {
            "chunk_samples": stream_chunk,
            "raw": alg_walltimes(vca_raw, fs, stream_chunk),
            "compressed": alg_walltimes(vca_enc, fs, stream_chunk),
        }

    decode_MBps = results["codecs"][args.codec]["decode_MBps"] or 1.0
    results["lustre_projection"] = lustre_projection(
        raw_stats, enc_stats, decode_MBps
    )

    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)

    print(f"[bench_compress] wrote {args.out}")
    for spec, row in results["codecs"].items():
        print(
            f"[bench_compress] {spec}: ratio {row['ratio']:.2f}x, "
            f"encode {row['encode_MBps']:.0f} MB/s, "
            f"decode {row['decode_MBps']:.0f} MB/s"
        )
    for name, row in results["plane_encoder"].items():
        print(
            f"[bench_compress] {name}: transpose-zlib "
            f"{row['codec']['encode_MBps']:.0f}/{row['codec']['decode_MBps']:.0f} "
            f"MB/s enc/dec at {row['codec']['ratio']:.4f} vs whole-buffer "
            f"deflate {row['reference']['encode_MBps']:.0f}/"
            f"{row['reference']['decode_MBps']:.0f} MB/s at "
            f"{row['reference']['ratio']:.4f} "
            f"(size {row['size_vs_reference']:.4f}x, encode time "
            f"{row['encode_time_vs_reference']:.2f}x)"
        )
    vr = results["vca_full_read"]
    print(
        f"[bench_compress] VCA read bytes: {vr['raw']['bytes_read']} raw -> "
        f"{vr['compressed']['bytes_read']} compressed "
        f"({vr['bytes_ratio']:.2f}x fewer)"
    )
    e2e = results["end_to_end"]
    print(
        f"[bench_compress] alg2 cold {e2e['compressed']['cold']['alg2_wall_s']:.3f}s / "
        f"warm {e2e['compressed']['warm']['alg2_wall_s']:.3f}s (compressed); "
        f"raw cold {e2e['raw']['cold']['alg2_wall_s']:.3f}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
