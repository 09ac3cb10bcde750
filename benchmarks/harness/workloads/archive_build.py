"""``archive_build`` — the write side of the storage stack.

In-memory minute blocks -> one ``write_das_file`` per minute (chunked,
``transpose-zlib``, CRC) -> ``create_vca`` -> ``create_rca`` ->
``build_pyramid``, every pass into a fresh directory.  The other four
workloads only read; this one pays for what they read, so a codec, chunk
geometry or pyramid change that buys read speed with write time or
footprint shows here (``wall_s``, ``stored_ratio``).
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ReproError
from repro.hdf5lite import File, pyramid_levels
from repro.hdf5lite.inspect import verify as inspect_verify
from repro.serve import PyramidConfig, build_pyramid, compute_level
from repro.storage.dasfile import DATASET_NAME, das_filename, write_das_file
from repro.storage.rca import RCA_DATASET, create_rca
from repro.storage.vca import VCA_DATASET, create_vca

import probes
from common import digest_array, digest_file, fresh_dir
from workloads import (
    BaseSession,
    OpClock,
    PassResult,
    base_manifest,
    judge,
    minute_metadata,
    minute_stamps,
    synthesize,
)

NAME = "archive_build"
CHUNK_SAMPLES = 4096
PYRAMID = PyramidConfig(factor=4)


def setup(seed: int, params: dict, root: str) -> dict:
    """Generator side only: the minute blocks the measured process will
    hold in memory (the program's writers run inside the timed passes)."""
    data, gen_s = synthesize(seed, params)
    manifest = base_manifest(NAME, params, data, gen_s)
    blocks = os.path.join(root, "blocks.npy")
    np.save(blocks, data)
    manifest.update(root=root, blocks=blocks)
    return manifest


class Session(BaseSession):
    def __init__(self, manifest: dict):
        super().__init__(manifest)
        self.whole = np.load(manifest["blocks"])
        spm = self.p["spm"]
        self.blocks = [
            np.ascontiguousarray(self.whole[:, i * spm : (i + 1) * spm])
            for i in range(self.p["files"])
        ]
        self.stamps = minute_stamps(self.p)
        self.chunks = (min(self.p["channels"], 64), CHUNK_SAMPLES)

    def _out(self) -> str:
        return os.path.join(self.m["root"], "build")

    def stored_bytes(self) -> int:
        """Files + VCA (which carries the pyramid); the RCA is a second
        copy of the record by design and is left out."""
        return sum(os.path.getsize(p) for p in self.last["files"]) + os.path.getsize(
            self.last["vca"]
        )

    def run_pass(self, tr) -> PassResult:
        out = fresh_dir(self._out())
        write = tr.wrap(write_das_file, "write_das_file", "storage")
        clock = OpClock(tr)
        files = []
        for block, stamp in zip(self.blocks, self.stamps):
            with clock.op("write_file"):
                files.append(write(
                    os.path.join(out, das_filename(stamp)), block,
                    minute_metadata(self.p, stamp), channel_groups=False,
                    chunks=self.chunks, codec="transpose-zlib", checksum=True,
                    iostats=self.stats,
                ))
        with clock.op("create_vca"):
            vca = tr.wrap(create_vca, "create_vca", "storage")(
                os.path.join(out, "vca.h5"), files, iostats=self.stats
            )
        bare_vca_bytes = os.path.getsize(vca)
        with clock.op("create_rca"):
            rca = tr.wrap(create_rca, "create_rca", "storage")(
                os.path.join(out, "rca.h5"), files, iostats=self.stats
            )
        with clock.op("build_pyramid"):
            tr.wrap(build_pyramid, "build_pyramid", "serve")(
                vca, PYRAMID, iostats=self.stats
            )
        result = clock.finish()

        self.last = {
            "files": files, "vca": vca, "rca": rca,
            "pyramid_bytes": os.path.getsize(vca) - bare_vca_bytes,
        }
        # the VCA embeds no sample bytes, only the pyramid: digest its levels
        with File(vca, "r") as f:
            levels = [digest_array(f[level.path][:, :]) for level in pyramid_levels(f)]
        result.outputs = {
            "write_file": [digest_file(path) for path in files],
            "create_vca": [os.path.basename(path) for path in files],
            "create_rca": digest_file(rca),
            "build_pyramid": levels,
        }
        return result

    def corrupt(self) -> None:
        """Flip one stored byte of the first file: the CRC must catch it."""
        path = self.last["files"][0]
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0x40]))

    def verify(self, passes: list[PassResult]) -> None:
        """``das_inspect --verify``-equivalent integrity checks plus
        read-back equality on the final pass's directory; earlier passes
        must have produced byte-identical files."""
        good = dict.fromkeys(
            ("write_file", "create_vca", "create_rca", "build_pyramid"), True
        )

        def intact(path: str, dataset: str, expected: np.ndarray) -> bool:
            try:
                with File(path, "r") as f:
                    return not inspect_verify(f) and np.array_equal(
                        f[dataset][:, :], expected
                    )
            except (ReproError, OSError):
                return False

        for path, block in zip(self.last["files"], self.blocks):
            good["write_file"] &= intact(path, DATASET_NAME, block)
        good["create_vca"] = intact(self.last["vca"], VCA_DATASET, self.whole)
        good["create_rca"] = intact(self.last["rca"], RCA_DATASET, self.whole)
        with File(self.last["vca"], "r") as f:
            for level in pyramid_levels(f):
                good["build_pyramid"] &= np.array_equal(
                    f[level.path][:, :],
                    compute_level(self.whole.astype(np.float64), level.factor),
                )
        judge(passes, good)

    def layer_metrics(self, tr, result: PassResult) -> dict:
        speed = result.speed  # raw span seconds -> reference speed
        raw_bytes = self.whole.nbytes
        metrics = {
            "storage.vca_create_ms": tr.total("create_vca") * speed * 1e3,
            "storage.rca_create_s": tr.total("create_rca") * speed,
            "serve.pyramid_build_s": tr.total("build_pyramid") * speed,
            "serve.pyramid_bytes_ratio": self.last["pyramid_bytes"] / raw_bytes,
        }
        metrics.update(
            probes.hdf5lite_write(self.blocks[0], self.m["root"], self.chunks)
        )
        return metrics
