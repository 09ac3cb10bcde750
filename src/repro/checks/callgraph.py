"""Project call graph.

Resolution is name-based and intentionally conservative: we resolve
calls we can attribute to a project-internal function with confidence —

* direct calls to module-level and nested ``def``s in the same module,
* ``self.method()`` to a method of the lexically enclosing class,
* ``alias.f()`` through ``import repro.pkg.mod as alias``,
* ``g()`` through ``from repro.pkg.mod import f as g``,
* names pulled in by ``from repro.pkg.mod import *`` (via the target
  module's ``__all__``; star imports without one resolve nothing),

— and attribute no edge otherwise.  A missing edge makes interprocedural
analyzers *less* sensitive (they treat the callee as opaque), never
wrong, which is the right failure mode for CI lints.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.checks.source import Project, SourceModule

__all__ = [
    "CallGraph", "FunctionInfo", "build_callgraph", "module_name_for",
    "own_calls",
]


def module_name_for(rel: str) -> str | None:
    """Dotted module name for a repo-relative path, or None if it is
    not importable project code (``src/repro/a/b.py`` -> ``repro.a.b``)."""
    if not rel.startswith("src/") or not rel.endswith(".py"):
        return None
    parts = rel[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


@dataclass
class FunctionInfo:
    """One project function: where it lives and its definition node."""

    rel: str  # module repo-relative path
    qualname: str  # "f", "Class.method", "outer.<locals>.inner"
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def key(self) -> tuple[str, str]:
        return (self.rel, self.qualname)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class _ModuleSymbols:
    """Name-resolution context for one module."""

    mod: SourceModule
    module: str | None
    #: top-level function/method defs by qualname
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: local name -> dotted module (``import repro.a.b as m``)
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> (dotted module, remote symbol) (``from m import f as g``)
    imported: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: dotted modules star-imported (resolved via their __all__)
    star_imports: list[str] = field(default_factory=list)
    #: names exported by this module's __all__ (empty when absent)
    exports: set[str] = field(default_factory=set)


@dataclass
class CallGraph:
    """Functions and call edges."""

    #: (rel, qualname) -> FunctionInfo
    functions: dict[tuple[str, str], FunctionInfo] = field(default_factory=dict)
    #: caller key -> callee keys
    calls: dict[tuple[str, str], set[tuple[str, str]]] = field(default_factory=dict)
    #: (module rel, id(ast.Call)) -> callee key, for per-site lookup
    call_sites: dict[tuple[str, int], tuple[str, str]] = field(default_factory=dict)

    def resolve_site(self, rel: str, call) -> FunctionInfo | None:
        """The project function a specific call expression resolves to."""
        key = self.call_sites.get((rel, id(call)))
        return self.functions.get(key) if key else None

    def callees(self, func: FunctionInfo) -> list[FunctionInfo]:
        return [
            self.functions[key]
            for key in sorted(self.calls.get(func.key, ()))
            if key in self.functions
        ]

    def functions_in(self, rel: str) -> list[FunctionInfo]:
        return [f for f in self.functions.values() if f.rel == rel]

    def transitive_closure_calls(
        self, start: FunctionInfo, limit: int = 10_000
    ) -> set[tuple[str, str]]:
        """Every function key reachable from ``start`` along call edges
        (``start`` excluded unless recursive)."""
        seen: set[tuple[str, str]] = set()
        stack = [start.key]
        while stack and len(seen) < limit:
            key = stack.pop()
            for callee in sorted(self.calls.get(key, ())):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen


def _collect_functions(symbols: _ModuleSymbols) -> None:
    """Index every def: module-level, methods, and nested functions."""

    def walk(body: list[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                symbols.functions[qual] = FunctionInfo(
                    rel=symbols.mod.rel, qualname=qual, node=stmt
                )
                walk(stmt.body, f"{qual}.<locals>.")
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, f"{prefix}{stmt.name}.")
            elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                # defs nested under module-level control flow still count
                for sub in ast.iter_child_nodes(stmt):
                    if isinstance(sub, ast.stmt):
                        walk([sub], prefix)

    tree = symbols.mod.tree
    if tree is not None:
        walk(tree.body, "")


def _collect_imports(symbols: _ModuleSymbols) -> None:
    tree = symbols.mod.tree
    if tree is None:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import repro.a.b`` binds ``repro``; only the
                    # asname form gives a usable module alias.
                    if alias.asname:
                        symbols.module_aliases[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(symbols, node.level, node.module)
            else:
                base = node.module
            if not base or not base.startswith("repro"):
                continue
            for alias in node.names:
                if alias.name == "*":
                    symbols.star_imports.append(base)
                else:
                    local = alias.asname or alias.name
                    symbols.imported[local] = (base, alias.name)


def _resolve_relative(symbols: _ModuleSymbols, level: int, module: str | None) -> str | None:
    if symbols.module is None:
        return None
    parts = symbols.module.split(".")
    # level 1 = current package; the module's own name is dropped first
    # unless this IS a package __init__.
    if not symbols.mod.rel.endswith("__init__.py"):
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    if not parts:
        return None
    return ".".join(parts + ([module] if module else []))


def _collect_exports(symbols: _ModuleSymbols) -> None:
    tree = symbols.mod.tree
    if tree is None:
        return
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "__all__"
            and isinstance(stmt.value, (ast.List, ast.Tuple))
        ):
            for elt in stmt.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    symbols.exports.add(elt.value)


def _resolve_call(
    call: ast.Call,
    func: FunctionInfo,
    symbols: _ModuleSymbols,
    by_module: dict[str, _ModuleSymbols],
    module_rels: dict[str, str],
) -> tuple[str, str] | None:
    target = call.func
    if isinstance(target, ast.Name):
        name = target.id
        # Nearest lexical def scope first (a nested def in the caller
        # itself), then each enclosing def, then module level.
        prefix_parts = func.qualname.split(".")
        while True:
            qual = ".".join(prefix_parts + ["<locals>", name]) if prefix_parts else name
            if qual in symbols.functions:
                return (symbols.mod.rel, qual)
            if not prefix_parts:
                break
            prefix_parts = prefix_parts[:-1]
            if prefix_parts and prefix_parts[-1] == "<locals>":
                prefix_parts = prefix_parts[:-1]
        if name in symbols.imported:
            module, remote = symbols.imported[name]
            return _resolve_remote(module, remote, by_module, module_rels)
        for module in symbols.star_imports:
            remote_symbols = _symbols_for(module, by_module, module_rels)
            if remote_symbols and name in remote_symbols.exports:
                return _resolve_remote(module, name, by_module, module_rels)
        return None
    if isinstance(target, ast.Attribute):
        attr = target.attr
        base = target.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                # method on the lexically enclosing class
                parts = func.qualname.split(".")
                if len(parts) >= 2 and parts[-2] != "<locals>":
                    cls_prefix = ".".join(parts[:-1])
                    qual = f"{cls_prefix}.{attr}"
                    if qual in symbols.functions:
                        return (symbols.mod.rel, qual)
                return None
            if base.id in symbols.module_aliases:
                module = symbols.module_aliases[base.id]
                return _resolve_remote(module, attr, by_module, module_rels)
            if base.id in symbols.imported:
                # ``from repro.a import b`` then ``b.f()``: b may be a module
                module, remote = symbols.imported[base.id]
                return _resolve_remote(f"{module}.{remote}", attr, by_module, module_rels)
        if isinstance(base, ast.Call) and isinstance(base.func, ast.Name):
            # ``ClassName(...).method()`` — local or imported class
            cls_name = base.func.id
            qual = f"{cls_name}.{attr}"
            if qual in symbols.functions:
                return (symbols.mod.rel, qual)
            if cls_name in symbols.imported:
                module, remote = symbols.imported[cls_name]
                remote_symbols = _symbols_for(module, by_module, module_rels)
                if (
                    remote_symbols is not None
                    and f"{remote}.{attr}" in remote_symbols.functions
                ):
                    return (remote_symbols.mod.rel, f"{remote}.{attr}")
    return None


def _symbols_for(
    module: str,
    by_module: dict[str, _ModuleSymbols],
    module_rels: dict[str, str],
) -> _ModuleSymbols | None:
    rel = module_rels.get(module)
    return by_module.get(rel) if rel else None


def _resolve_remote(
    module: str,
    symbol: str,
    by_module: dict[str, _ModuleSymbols],
    module_rels: dict[str, str],
) -> tuple[str, str] | None:
    remote = _symbols_for(module, by_module, module_rels)
    if remote is None:
        return None
    if symbol in remote.functions:
        return (remote.mod.rel, symbol)
    # re-export chase, one hop: ``from .x import f`` in a package __init__
    if symbol in remote.imported:
        inner_module, inner_symbol = remote.imported[symbol]
        inner = _symbols_for(inner_module, by_module, module_rels)
        if inner is not None and inner_symbol in inner.functions:
            return (inner.mod.rel, inner_symbol)
    return None


def build_callgraph(project: Project) -> CallGraph:
    """Build functions and call edges for the project."""
    by_module: dict[str, _ModuleSymbols] = {}
    module_rels: dict[str, str] = {}
    for mod in project.modules:
        symbols = _ModuleSymbols(mod=mod, module=module_name_for(mod.rel))
        _collect_functions(symbols)
        _collect_imports(symbols)
        _collect_exports(symbols)
        by_module[mod.rel] = symbols
        if symbols.module is not None:
            module_rels[symbols.module] = mod.rel

    graph = CallGraph()
    for symbols in by_module.values():
        for func in symbols.functions.values():
            graph.functions[func.key] = func

    for rel, symbols in by_module.items():
        for func in symbols.functions.values():
            edges: set[tuple[str, str]] = set()
            for call in own_calls(func.node):
                resolved = _resolve_call(call, func, symbols, by_module, module_rels)
                if resolved is not None and resolved in graph.functions:
                    edges.add(resolved)
                    graph.call_sites[(rel, id(call))] = resolved
            graph.calls[func.key] = edges
    return graph


def own_calls(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.Call]:
    """Call expressions lexically owned by ``func`` itself — nested
    ``def``/``lambda`` bodies are pruned (their calls belong to the
    nested function's own entry)."""
    out: list[ast.Call] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out
