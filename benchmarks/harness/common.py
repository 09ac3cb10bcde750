"""Shared plumbing for the benchmark harness.

Paths, the ``src`` bootstrap (the harness is run as plain scripts from a
checkout where the package is not installed), percentile/quartile helpers
and the per-scale workload sizes.  Nothing here touches the program under
test beyond making it importable.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.abspath(os.path.join(HARNESS_DIR, "..", ".."))
SRC_DIR = os.path.join(REPO_ROOT, "src")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")
#: Every byte the harness writes lands under here (inside the checkout,
#: gitignored) and is removed before the command exits.
WORK_ROOT = os.path.join(HARNESS_DIR, ".work")

#: First acquisition timestamp of every generated archive.
START_STAMP = "170620100545"


def bootstrap_src() -> None:
    """Make ``repro`` importable; fail loudly when the program is absent
    (the driver checks that a checkout without ``src`` cannot report)."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(
            f"benchmark harness: program source not found at {SRC_DIR}"
        )
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


# -- sizes ---------------------------------------------------------------------
#
# ``mid`` is the tier every claim is measured at: small enough that one run
# (five set-ups, a warm-up, ~10 s of timed passes, verification) stays
# under ~20 s on two cores, large enough that a timed pass is 0.3-1 s and
# every wall is two orders of magnitude above timer noise.  ``smoke``
# exists for the harness self-tests only.
SCALES: dict[str, dict[str, dict]] = {
    "mid": {
        "batch_detect": dict(channels=32, files=3, spm=30000, fs=500.0, chunk=12000),
        "archive_scan": dict(channels=96, files=3, spm=10000, fs=500.0, chunk=12000),
        "serve_fleet": dict(
            channels=32, files=3, spm=30000, fs=500.0,
            requests=120, tenants=2,
        ),
        "rt_drip": dict(channels=24, files=40, spm=3000, fs=100.0),
        "archive_build": dict(channels=32, files=3, spm=30000, fs=500.0),
    },
    "smoke": {
        "batch_detect": dict(channels=8, files=2, spm=6000, fs=500.0, chunk=4000),
        "archive_scan": dict(channels=8, files=2, spm=4000, fs=500.0, chunk=3000),
        "serve_fleet": dict(
            channels=8, files=2, spm=6000, fs=500.0,
            requests=40, tenants=2,
        ),
        "rt_drip": dict(channels=8, files=6, spm=1500, fs=100.0),
        "archive_build": dict(channels=8, files=2, spm=6000, fs=500.0),
    },
}


# -- statistics ----------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def digest_array(arr) -> str:
    """Content digest of an array (dtype, shape and bytes)."""
    import numpy as np

    arr = np.ascontiguousarray(arr)
    h = hashlib.sha1()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.view(np.uint8).reshape(-1).data)
    return h.hexdigest()


def digest_file(path: str) -> str:
    h = hashlib.sha1()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_bytes(root: str) -> int:
    """Total size of the regular files under ``root``."""
    total = 0
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


# -- files ---------------------------------------------------------------------

def write_json(path: str, doc: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def fresh_dir(path: str) -> str:
    """Create ``path`` empty (removing any previous content)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
