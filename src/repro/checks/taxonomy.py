"""Exception-taxonomy analyzer (``TAX``).

The degraded-read, retry, and quarantine paths depend on the typed
hierarchy in :mod:`repro.errors` to tell transient faults from logic
bugs.  Three checks defend it:

``TAX001`` broad except
    ``except:``, ``except Exception:`` or ``except BaseException:``
    (alone or in a tuple) swallows the taxonomy.  An intentional
    boundary carries ``# noqa: TAX001 - reason`` (the historical
    ``BLE001`` marker is accepted).
``TAX002`` builtin raise from library code
    ``raise ValueError/TypeError/RuntimeError/OSError/...`` under
    ``src/repro`` where a :mod:`repro.errors` type exists.  Protocol
    exceptions are exempt: ``KeyError``/``IndexError``/``StopIteration``
    anywhere (mapping/iterator contracts), ``TypeError`` inside dunder
    methods (``__len__`` of a 0-d dataset *should* raise ``TypeError``),
    and ``NotImplementedError`` (an abstract-hook marker).  Relaxed
    scopes (benchmarks/, examples/) skip this check — scripts may raise
    whatever they like.
``TAX003`` silently swallowed handler
    an ``except`` whose body is a lone ``pass``/``...`` without a
    ``noqa`` marker: the error vanishes with no record, no counter, no
    fallback.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.registry import Analyzer
from repro.checks.source import Project, SourceModule

__all__ = ["ExceptionTaxonomyAnalyzer", "BUILTIN_RAISE_HINTS"]

_BROAD = {"Exception", "BaseException"}

#: builtin -> the taxonomy type a library raise should use instead.
BUILTIN_RAISE_HINTS = {
    "Exception": "ReproError (or a concrete subclass)",
    "ValueError": "ConfigError (a ValueError subclass, so callers keep working)",
    "TypeError": "ConfigError",
    "RuntimeError": "ReproError (or StorageError / MPIError / UDFError)",
    "OSError": "StorageError (or DegradedReadError for masked losses)",
    "IOError": "StorageError",
}

_DUNDER_EXEMPT = {"TypeError"}  # protocol errors inside __dunder__ methods


def _exception_names(node: ast.expr | None) -> list[str]:
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _exception_names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _is_silent(handler: ast.ExceptHandler) -> bool:
    if len(handler.body) != 1:
        return False
    stmt = handler.body[0]
    if isinstance(stmt, ast.Pass):
        return True
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis
    )


class ExceptionTaxonomyAnalyzer(Analyzer):
    name = "exception-taxonomy"
    description = "typed repro.errors taxonomy instead of broad/builtin exceptions"
    codes = {
        "TAX001": "bare or broad except swallows the typed taxonomy",
        "TAX002": "builtin exception raised where a repro.errors type exists",
        "TAX003": "exception silently swallowed (pass-only handler)",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        for mod in project.modules:
            if mod.tree is None:
                continue
            yield from self._check_module(mod)

    def _check_module(self, mod: SourceModule) -> Iterator[Finding]:
        library = mod.rel.startswith("src/repro/") and not mod.relaxed
        dunder_stack: list[bool] = []

        def walk(node: ast.AST) -> Iterator[Finding]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder_stack.append(
                    node.name.startswith("__") and node.name.endswith("__")
                )
            try:
                if isinstance(node, ast.ExceptHandler):
                    yield from check_handler(node)
                elif isinstance(node, ast.Raise) and library:
                    yield from check_raise(node)
                for child in ast.iter_child_nodes(node):
                    yield from walk(child)
            finally:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    dunder_stack.pop()

        def check_handler(handler: ast.ExceptHandler) -> Iterator[Finding]:
            names = _exception_names(handler.type)
            if handler.type is None or any(n in _BROAD for n in names):
                if not mod.is_suppressed(handler.lineno, "TAX001"):
                    caught = "bare except" if handler.type is None else (
                        "except " + "/".join(n for n in names if n in _BROAD)
                    )
                    yield self.finding(
                        "TAX001", mod, handler.lineno,
                        f"{caught} swallows the typed error taxonomy",
                        hint="catch a repro.errors type, or annotate the "
                             "boundary `# noqa: TAX001 - reason`",
                    )
            if _is_silent(handler):
                pass_line = handler.body[0].lineno
                if not (
                    mod.is_suppressed(handler.lineno, "TAX003")
                    or mod.is_suppressed(pass_line, "TAX003")
                ):
                    yield self.finding(
                        "TAX003", mod, handler.lineno,
                        "exception silently swallowed (pass-only handler)",
                        hint="record, count, or re-raise it — or annotate "
                             "`# noqa: TAX003 - reason`",
                    )

        def check_raise(node: ast.Raise) -> Iterator[Finding]:
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if not isinstance(exc, ast.Name):
                return
            name = exc.id
            if name not in BUILTIN_RAISE_HINTS:
                return
            if name in _DUNDER_EXEMPT and any(dunder_stack[-1:]):
                return
            if mod.node_suppressed(node, "TAX002"):
                return
            yield self.finding(
                "TAX002", mod, node.lineno,
                f"library code raises builtin {name}",
                hint=f"raise {BUILTIN_RAISE_HINTS[name]} from repro.errors",
            )

        yield from walk(mod.tree)
