"""API surface (exports and the layer DAG) and rendering utilities."""

import ast
import importlib
import pkgutil
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
