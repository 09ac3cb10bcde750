"""A read holds at most ``DEFAULT_MAX_HANDLES`` source files open, however
many minutes a VCA merges: a ``File`` resolves its virtual sources only
through a :class:`~repro.hdf5lite.FilePool` — the one given, else its own,
closed with it.  The paper's VCA merges a day of one-file-per-minute
acquisition (2 880 files), more than the usual 1 024-descriptor limit."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.framework import DASSA
from repro.hdf5lite import File
from repro.hdf5lite import binary
from repro.hdf5lite.cache import DEFAULT_MAX_HANDLES
from repro.storage.dasfile import das_filename, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.storage.vca import VCA_DATASET, create_vca, open_vca

N_SOURCES = 2 * DEFAULT_MAX_HANDLES + 8
SPM = 120
#: Descriptors a read may hold beyond its pooled sources: the VCA file.
SLACK = 2

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """``N_SOURCES`` one-channel minutes (2 Hz, 120 samples) and their VCA."""
    root = tmp_path_factory.mktemp("many_minutes")
    rng = np.random.default_rng(5)
    stamp = "170620100545"
    paths, blocks = [], []
    for _ in range(N_SOURCES):
        data = rng.normal(size=(1, SPM)).astype(np.float32)
        metadata = DASMetadata(
            sampling_frequency=2.0, timestamp=stamp, n_channels=1
        )
        paths.append(
            write_das_file(
                str(root / das_filename(stamp)), data, metadata, channel_groups=False
            )
        )
        blocks.append(data)
        stamp = timestamp_add_seconds(stamp, 60)
    return {
        "vca": create_vca(str(root / "v.h5"), paths),
        "full": np.concatenate(blocks, axis=1),
    }


@pytest.fixture
def peak_fds(monkeypatch):
    """The most descriptors open at once, sampled after every file open."""
    peak = [_open_fds()]
    opened = binary.FileBackend.__init__

    def open_and_count(self, *args, **kwargs):
        opened(self, *args, **kwargs)
        peak[0] = max(peak[0], _open_fds())

    monkeypatch.setattr(binary.FileBackend, "__init__", open_and_count)
    return peak


def _facade_digest(vca: str) -> str:
    out = DASSA().sta_lta(vca, 5, 50)
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()


@pytest.mark.parametrize("way", ["file", "open_vca", "facade"])
def test_a_whole_record_read_holds_a_bounded_number_of_sources(
    archive, peak_fds, way
):
    before = _open_fds()
    peak_fds[0] = before
    if way == "file":
        with File(archive["vca"], "r") as f:
            data = f.dataset(VCA_DATASET).read()
            held = _open_fds()
        np.testing.assert_array_equal(data, archive["full"])
    elif way == "open_vca":
        with open_vca(archive["vca"]) as handle:
            data = handle.read(0, handle.shape[1])
            held = _open_fds()
        np.testing.assert_array_equal(data, archive["full"])
    else:
        _facade_digest(archive["vca"])
        held = peak_fds[0]
    assert held - before <= DEFAULT_MAX_HANDLES + SLACK
    assert peak_fds[0] - before <= DEFAULT_MAX_HANDLES + SLACK
    assert _open_fds() == before


def test_facade_reads_more_sources_than_the_descriptor_limit(archive):
    """A child whose soft ``RLIMIT_NOFILE`` is below the source count runs
    the facade over the whole VCA and gets the same answer."""
    limit = DEFAULT_MAX_HANDLES + 32
    assert limit < N_SOURCES
    child = (
        "import resource, sys\n"
        "soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
        f"resource.setrlimit(resource.RLIMIT_NOFILE, ({limit}, hard))\n"
        "from tests.test_source_handle_bound import _facade_digest\n"
        "print(_facade_digest(sys.argv[1]))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    proc = subprocess.run(
        [sys.executable, "-c", child, archive["vca"]],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == _facade_digest(archive["vca"])
