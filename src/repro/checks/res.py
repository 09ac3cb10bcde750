"""Resource-lifecycle analyzer (``RES``).

``RES002`` — blocking operation while holding a lock.  Inside a
``with <lock>:`` region (any context expression whose final name looks
lock-ish: ``lock``/``mutex``/``cond``/``sem``, or a lock named by the
class's ``# guarded-by:`` annotations; ``# holds-lock`` methods count
as holding the class guard), a call that can block indefinitely —
``open``, ``time.sleep``, ``os.fsync``, ``.recv``, fabric
``.match``/``.exchange``, thread ``.join``, ``.wait`` — stalls every other thread contending for that lock.  The
one blessed exception: ``.wait()`` *on the held lock itself* — that is
``Condition.wait``, which releases the lock while sleeping.  As in
:mod:`repro.checks.locks`, nested ``def``/``lambda`` bodies do not
inherit the region (a closure outlives the block that made it).

A handle left open is not this module's business: the test suite turns
every ``ResourceWarning`` into an error, so a leak fails the test that
provokes it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.locks import _collect_guards
from repro.checks.registry import Analyzer
from repro.checks.source import Project, SourceModule

__all__ = ["ResourceLifecycleAnalyzer", "BLOCKING_CALLS", "LOCKISH_RE"]

#: Final attribute/name components treated as a lock object.
LOCKISH_RE = re.compile(r"(lock|mutex|cond|sem|rlock)", re.IGNORECASE)

#: Method names that can block the calling thread indefinitely.
BLOCKING_CALLS = frozenset({
    "recv", "match", "exchange", "join", "wait", "sleep", "fsync",
})
#: Plain-name calls that block (builtins / star-imported).
_BLOCKING_NAMES = frozenset({"open", "sleep"})


def _last_name(expr: ast.expr) -> str | None:
    """``self._io_lock`` -> ``_io_lock``; ``lock`` -> ``lock``."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Call):
        # ``with pool.lease(...):`` — classify by the method name.
        return _last_name(expr.func)
    return None


class ResourceLifecycleAnalyzer(Analyzer):
    name = "resource-lifecycle"
    description = "no blocking call while a lock is held"
    codes = {
        "RES002": "blocking operation while holding a lock",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        for mod in project.modules:
            if mod.tree is None or mod.relaxed:
                continue
            yield from self._check_blocking(mod, self._class_guards(mod))

    def _class_guards(self, mod: SourceModule) -> dict[int, set[str]]:
        """id(ClassDef) -> lock attribute names from # guarded-by."""
        out: dict[int, set[str]] = {}
        if mod.tree is None:
            return out
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ClassDef):
                guards, _assigned = _collect_guards(mod, node)
                out[id(node)] = set(guards.values())
        return out

    def _check_blocking(
        self, mod: SourceModule, guards_by_class: dict[int, set[str]]
    ) -> Iterator[Finding]:
        findings: list[Finding] = []

        def blocking_op(node: ast.Call, held: frozenset[str]) -> str | None:
            func = node.func
            if isinstance(func, ast.Name) and func.id in _BLOCKING_NAMES:
                return func.id
            if isinstance(func, ast.Attribute) and func.attr in BLOCKING_CALLS:
                receiver = _last_name(func.value)
                if func.attr == "wait":
                    # Condition.wait releases the lock it wraps while
                    # sleeping: exempt waits on the held lock or on any
                    # lock-ish condition object.
                    if receiver is not None and (
                        receiver in held or LOCKISH_RE.search(receiver)
                    ):
                        return None
                if func.attr == "join":
                    # os.path.join / ", ".join are string ops, not
                    # thread joins.
                    if isinstance(func.value, ast.Constant):
                        return None
                    if receiver in {"path", "os", "posixpath", "ntpath"}:
                        return None
                return func.attr
            return None

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = set(held)
                for item in node.items:
                    name = _last_name(item.context_expr)
                    if name is not None and LOCKISH_RE.search(name):
                        inner.add(name)
                    visit(item.context_expr, held)
                for child in node.body:
                    visit(child, frozenset(inner))
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                body = node.body if isinstance(node.body, list) else [node.body]
                for child in body:
                    visit(child, frozenset())
                return
            if isinstance(node, ast.ClassDef):
                # every class is visited by the dedicated class loop
                return
            if isinstance(node, ast.Call) and held:
                op = blocking_op(node, held)
                if op is not None and not mod.node_suppressed(node, "RES002"):
                    locks = ", ".join(sorted(held))
                    findings.append(self.finding(
                        "RES002", mod, node.lineno,
                        f"blocking call {op!r} while holding {locks} — "
                        f"every contender on the lock stalls behind it",
                        hint="move the blocking work outside the lock, "
                             "or snapshot under the lock and do I/O after",
                    ))
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        if mod.tree is None:
            return
        for top in ast.walk(mod.tree):
            if not isinstance(top, ast.ClassDef):
                continue
            guard_locks = guards_by_class.get(id(top), set())
            for stmt in top.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                held = frozenset(
                    guard_locks
                    if mod.holds_lock_on(stmt.lineno)
                    or mod.holds_lock_on(stmt.lineno - 1)
                    else ()
                )
                for child in stmt.body:
                    visit(child, held)
        # module-level functions (no guard context)
        for top in mod.tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in top.body:
                    visit(child, frozenset())
        yield from findings
