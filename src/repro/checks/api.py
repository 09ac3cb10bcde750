"""Public-API analyzer (``API``).

Three checks on the import surface:

``API001`` — an ``__all__`` entry that names nothing the module
    defines or imports (a stale export; ``from m import *`` would
    raise).  Modules with a PEP 562 module-level ``__getattr__`` are
    skipped — their exports are computed (e.g. the lazily imported
    ``repro.DASSA``).
``API002`` — a public surface module without ``__all__``: every package
    ``__init__.py`` under ``src/repro`` and every non-underscore
    top-level module (``repro.errors``) must pin its export list.
    Relaxed scopes (benchmarks/, examples/) are scripts, not libraries,
    and are exempt.
``API003`` — a cross-layer import against the architecture's direction.
    The layer ranks encode the dependency DAG the repo is built on
    (storage sits on hdf5lite, core on everything, rt on core...); a
    module may import strictly *lower* layers only, so ``hdf5lite``
    importing from ``rt`` — or any same-rank sibling coupling — is
    flagged before it becomes an import cycle.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.registry import Analyzer
from repro.checks.source import Project, SourceModule

__all__ = ["PublicApiAnalyzer", "LAYER_RANKS"]

#: The architecture's dependency order: a module in layer L may import
#: only layers of strictly lower rank (itself excepted).  Mirrors
#: DESIGN.md §3's module map; update both together when adding a package.
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


def _module_scope_names(tree: ast.Module) -> tuple[set[str], bool]:
    """Module-level bindings, and whether a PEP 562 ``__getattr__`` exists."""
    names: set[str] = set()
    has_getattr = False
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            if node.name == "__getattr__":
                has_getattr = True
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
                elif isinstance(t, (ast.Tuple, ast.List)):
                    names.update(
                        e.id for e in t.elts if isinstance(e, ast.Name)
                    )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING blocks / optional imports: one level deep.
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        if alias.name != "*":
                            names.add((alias.asname or alias.name).split(".")[0])
    return names, has_getattr


def _declared_all(tree: ast.Module) -> tuple[list[str] | None, int]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                value = ast.literal_eval(node.value)
            except (ValueError, SyntaxError):
                return None, node.lineno
            if isinstance(value, (list, tuple)):
                return [str(v) for v in value], node.lineno
    return None, 0


def _imported_repro_packages(tree: ast.Module) -> Iterator[tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro" and len(parts) > 1:
                    yield parts[1], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import stays within the package
                continue
            module = node.module or ""
            parts = module.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) > 1:
                yield parts[1], node.lineno
            else:
                for alias in node.names:
                    yield alias.name, node.lineno


class PublicApiAnalyzer(Analyzer):
    name = "public-api"
    description = "__all__ completeness and cross-layer import direction"
    codes = {
        "API001": "__all__ exports a name the module does not define",
        "API002": "public module missing __all__",
        "API003": "import against the layer direction",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        for mod in project.modules:
            if mod.tree is None:
                continue
            yield from self._check_all(mod)
            if not mod.relaxed:
                yield from self._check_layers(mod)

    def _check_all(self, mod: SourceModule) -> Iterator[Finding]:
        declared, line = _declared_all(mod.tree)
        names, has_getattr = _module_scope_names(mod.tree)
        if declared is not None and not has_getattr:
            for entry in declared:
                if entry not in names and not mod.is_suppressed(line, "API001"):
                    yield self.finding(
                        "API001", mod, line,
                        f"__all__ exports {entry!r} which the module "
                        f"neither defines nor imports",
                        hint="remove the stale entry or import the name",
                    )
        if declared is None and not mod.relaxed and self._needs_all(mod):
            if not mod.node_suppressed(mod.tree.body[0] if mod.tree.body else mod.tree, "API002"):
                yield self.finding(
                    "API002", mod, 1,
                    "public module has no __all__",
                    hint="pin the export list so the public surface is explicit",
                )

    @staticmethod
    def _needs_all(mod: SourceModule) -> bool:
        parts = mod.rel.split("/")
        if parts[:2] != ["src", "repro"]:
            return False
        if parts[-1] == "__init__.py":
            return True
        # top-level modules (repro/errors.py); underscore-private exempt
        return len(parts) == 3 and not parts[-1].startswith("_")

    def _check_layers(self, mod: SourceModule) -> Iterator[Finding]:
        layer = mod.layer
        if layer is None or layer == "__init__":
            return
        my_rank = LAYER_RANKS.get(layer)
        if my_rank is None:
            return  # unregistered package: add it to LAYER_RANKS
        for target, line in _imported_repro_packages(mod.tree):
            if target == layer:
                continue
            their_rank = LAYER_RANKS.get(target)
            if their_rank is None or their_rank < my_rank:
                continue
            if mod.is_suppressed(line, "API003"):
                continue
            direction = "a higher layer" if their_rank > my_rank else "a same-rank layer"
            yield self.finding(
                "API003", mod, line,
                f"{layer} (rank {my_rank}) imports repro.{target} "
                f"(rank {their_rank}) — {direction}",
                hint="invert the dependency or move the shared piece down "
                     "a layer (see LAYER_RANKS in repro/checks/api.py)",
            )
