"""Shared fixtures: small synthetic DAS datasets on disk."""

import numpy as np
import pytest

from repro.core.pipeline import Branch, run_chunks
from repro.storage.chunks import as_source
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds


def pytest_addoption(parser):
    parser.addoption(
        "--every-crash-point", action="store_true",
        help="kill the writers of tests/test_hdf5lite_publish.py at every "
             "durable effect, not only the first, middle and last write "
             "and the promote",
    )

@pytest.fixture
def das_dir(tmp_path):
    """Six tiny per-minute DAS files (16 channels x 120 samples, 2 Hz)."""
    directory = tmp_path / "das"
    directory.mkdir()
    rng = np.random.default_rng(42)
    stamp = "170620100545"
    paths = []
    blocks = []
    for _ in range(6):
        data = rng.normal(size=(16, 120)).astype(np.float32)
        metadata = DASMetadata(
            sampling_frequency=2.0,
            spatial_resolution=2.0,
            timestamp=stamp,
            n_channels=16,
        )
        path = str(directory / das_filename(stamp))
        write_das_file(path, data, metadata, channel_groups=False)
        paths.append(path)
        blocks.append(data)
        stamp = timestamp_add_seconds(stamp, 60)
    return {
        "dir": str(directory),
        "paths": paths,
        "blocks": blocks,
        "full": np.concatenate(blocks, axis=1),
        "stamps": [
            "170620100545",
            "170620100645",
            "170620100745",
            "170620100845",
            "170620100945",
            "170620101045",
        ],
    }


@pytest.fixture
def lock_sanitizer():
    """Install the runtime lock sanitizer (repro.checks.runtime) for one
    test: threading.Lock/RLock construct instrumented locks while the
    fixture is active, and every recorded violation is available on the
    yielded sanitizer."""
    from repro.checks.runtime import LockSanitizer

    sanitizer = LockSanitizer()
    sanitizer.install()
    try:
        yield sanitizer
    finally:
        sanitizer.uninstall()


def run_chain(ops, source, chunk_samples=None, threads=1, fs=None, **kwargs):
    """The one-branch kernel call of an operator list; ``chunk_samples=None``
    runs one whole-record chunk."""
    src = as_source(source, fs=fs)
    chunk = src.n_samples if chunk_samples is None else chunk_samples
    return run_chunks(src, [], [Branch.of(ops)], chunk, threads, **kwargs)[0]
