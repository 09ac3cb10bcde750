"""API surface (exports, the layer DAG, no scipy on the storage and
serving paths) and rendering utilities."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigError
from repro.synthetic.render import to_ascii, wiggle_summary

SRC = Path(repro.__file__).parent

#: The architecture's dependency order: a module in package P imports
#: ``repro.Q`` only if Q ranks strictly below P, or Q is P.  Mirrors
#: DESIGN.md §3's module map; add a new package to both.
LAYER_RANKS = {
    "_version": 0,
    "errors": 0,
    "utils": 1,
    "daslib": 1,       # standalone DSP library (deliberately dependency-free)
    "hdf5lite": 2,
    "cluster": 2,
    "simmpi": 3,
    "faults": 3,
    "storage": 4,
    "arrayudf": 5,
    "synthetic": 5,
    "core": 6,
    "rt": 7,
    "serve": 8,        # consumer-facing top; nothing may import it back
    "checks": 8,       # tooling on top; nothing may depend on it
}


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_lazy_dassa_import(self):
        assert repro.DASSA.__name__ == "DASSA"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.not_a_thing

    def test_exception_hierarchy(self):
        assert issubclass(repro.FormatError, repro.ReproError)
        assert issubclass(repro.MPIError, repro.ReproError)
        assert issubclass(repro.OutOfMemoryError, repro.ReproError)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


def test_every_module_imports_and_every_export_resolves():
    """Each package and each public top-level module pins ``__all__``, and
    every name in any module's ``__all__`` resolves on import."""
    modules = [
        info
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    assert len(modules) > 100
    for info in modules:
        module = importlib.import_module(info.name)
        leaf = info.name.rsplit(".", 1)[1]
        public_top = info.name.count(".") == 1 and not leaf.startswith("_")
        if info.ispkg or public_top:
            assert hasattr(module, "__all__"), f"{info.name} has no __all__"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{info.name}.__all__ names {name!r}"


def _repro_imports(tree):
    """The ``repro.X`` package of every absolute import in ``tree``,
    function-local ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = (
                [f"{module}.{alias.name}" for alias in node.names]
                if module == "repro"
                else [module]
            )
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1], node.lineno


def test_imports_follow_the_layer_dag():
    bad = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts == ("__init__.py",):
            continue  # the package root re-exports its layers
        layer = rel.parts[0].removesuffix(".py")
        assert layer in LAYER_RANKS, f"add {layer!r} to LAYER_RANKS"
        for target, line in _repro_imports(ast.parse(path.read_text())):
            if target != layer and LAYER_RANKS.get(target, -1) >= LAYER_RANKS[layer]:
                bad.append(f"{rel}:{line}: {layer} imports repro.{target}")
    assert bad == []


def _scipy_imports_at_import_time(tree):
    """Line of every ``scipy`` import that runs when the module is
    imported: all but those inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            yield node.lineno
        stack.extend(ast.iter_child_nodes(node))


def test_scipy_imports_at_import_time_sees_through_blocks():
    source = (
        "try:\n"
        "    from scipy.signal import lfilter\n"
        "except ImportError:\n"
        "    lfilter = None\n"
        "class K:\n"
        "    import scipy.fft\n"
        "def f():\n"
        "    from scipy import ndimage\n"
    )
    assert sorted(_scipy_imports_at_import_time(ast.parse(source))) == [2, 6]


def test_no_module_imports_scipy_at_import_time():
    """scipy belongs to the DSP kernels and is imported where they run, so
    storage, serving and the CLIs start without it (DESIGN §2)."""
    bad = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _scipy_imports_at_import_time(ast.parse(path.read_text()))
    ]
    assert bad == []


#: Run in a fresh interpreter whose import system refuses every ``scipy``
#: module: the storage, build, serving and CLI paths, none of which filters.
_WITHOUT_SCIPY = r"""
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("scipy was not refused")

import os

import numpy as np

from repro.core.detection import DetectedEvent
from repro.hdf5lite import File
from repro.hdf5lite.cli import main as das_inspect
from repro.rt.cli import main as rt_main
from repro.rt.events import EventSink, SeamEvent
from repro.serve import DataServer, build_pyramid
from repro.storage.cli import main as das_search
from repro.storage.dasfile import das_filename, read_das_file, write_das_file
from repro.storage.metadata import DASMetadata, timestamp_add_seconds
from repro.storage.rca import RCA_DATASET, create_rca
from repro.storage.vca import create_vca

root = sys.argv[1]
minutes = os.path.join(root, "minutes")
os.mkdir(minutes)
rng = np.random.default_rng(0)
stamp = "170620100545"
paths, blocks = [], []
for _ in range(3):
    block = rng.normal(size=(4, 600)).astype(np.float32)
    meta = DASMetadata(
        sampling_frequency=10.0, spatial_resolution=2.0, timestamp=stamp,
        n_channels=4,
    )
    paths.append(os.path.join(minutes, das_filename(stamp)))
    write_das_file(paths[-1], block, meta, checksum=True)
    blocks.append(block)
    stamp = timestamp_add_seconds(stamp, 60)
data, meta = read_das_file(paths[0])
assert np.array_equal(data, blocks[0]) and meta.n_channels == 4
record = np.concatenate(blocks, axis=1)

vca = create_vca(os.path.join(root, "arch.h5"), paths)
rca = create_rca(os.path.join(root, "rca.h5"), paths)
with File(rca, "r") as f:
    assert np.array_equal(f.dataset(RCA_DATASET).read(), record)
assert build_pyramid(vca)

event = DetectedEvent(
    label=1, kind="unclassified", channel_lo=0, channel_hi=3, t_start=5.0,
    t_end=8.0, peak_similarity=0.9, n_cells=12, speed_channels_per_s=0.0,
)
log = os.path.join(root, "events.jsonl")
EventSink(log).emit([SeamEvent(event=event, j_start=50, j_end=80)])
with DataServer(vca, events_path=log) as server:
    session = server.session("viewer")
    window = session.read_window(100, 900, channels=(1, 3))
    assert np.array_equal(window.data, record[1:3, 100:900])
    assert session.preview(0, 1800, width=64).data.size
    assert [e.event.label for e in session.events(0, 1800)] == [1]

assert das_inspect(["--verify", *paths]) == 0
assert das_search(["-d", minutes, "-s", "170620100545", "-c", "3", "-q"]) == 0
assert rt_main(["status", root]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert loaded == [], loaded
print("ran without scipy")
"""


def test_storage_serving_and_clis_run_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.parent) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ran without scipy\n")


class TestRender:
    def test_ascii_shape(self):
        art = to_ascii(np.random.default_rng(0).normal(size=(100, 200)), rows=10, cols=40)
        lines = art.splitlines()
        assert len(lines) == 10
        assert all(len(line) == 40 for line in lines)

    def test_bright_spot_renders_bright(self):
        arr = np.zeros((20, 20))
        arr[10, 10] = 100.0
        art = to_ascii(arr, rows=20, cols=20)
        assert "@" in art.splitlines()[10]

    def test_small_array_not_upsampled(self):
        art = to_ascii(np.eye(3), rows=10, cols=10)
        assert len(art.splitlines()) == 3

    def test_clip_percentile(self):
        rng = np.random.default_rng(1)
        arr = rng.uniform(0, 1, size=(10, 10))
        arr[0, 0] = 1e9  # outlier flattens everything without clipping
        art_raw = to_ascii(arr)
        art_clip = to_ascii(arr, clip_percentile=95.0)
        # Unclipped: only the outlier is bright, the rest is one shade.
        assert len(set(art_raw.replace("\n", ""))) <= 2
        # Clipped: the background regains contrast (several shades used).
        assert len(set(art_clip.replace("\n", ""))) > 3

    def test_invalid(self):
        with pytest.raises(ConfigError):
            to_ascii(np.zeros(5))
        with pytest.raises(ConfigError):
            to_ascii(np.zeros((2, 2)), rows=0)
        with pytest.raises(ConfigError):
            to_ascii(np.zeros((2, 2)), clip_percentile=10.0)

    def test_wiggle_summary(self):
        data = np.vstack([np.ones(100) * (i + 1) for i in range(4)])
        text = wiggle_summary(data, n_channels=4, width=20)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[-1].count("#") == 20  # loudest channel fills the bar

    def test_wiggle_invalid(self):
        with pytest.raises(ConfigError):
            wiggle_summary(np.zeros(3))
