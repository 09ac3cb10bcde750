"""Resource-lifecycle analyzer (``RES``).

``RES001`` — leak on an exception edge.  A handle acquired by
``h = open(...)`` or ``x = something.acquire(...)`` must be released on
*every* CFG path out of the function, including the exceptional ones.
The check is a forward may-hold dataflow (:mod:`repro.checks.dataflow`)
over the function's CFG: acquisitions add ``(name, line)`` facts,
releases (``close``/``release`` on the name) remove them, and any fact
still live at ``exit`` or ``raise-exit`` is a potential leak.  The
exception-edge transfer applies releases but **not** acquisitions — a
statement that raises mid-acquire never produced the handle, while a
``close`` on the exception path is assumed to have closed (flagging the
canonical ``try/finally: h.close()`` would be noise, not signal).
Facts also die when the handle escapes the function — returned,
yielded, stored on an attribute / in a container, or passed to another
call — because ownership moved somewhere this intraprocedural analysis
cannot see.  ``with open(...) as f`` never creates a fact at all: the
context manager *is* the discipline.

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
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.checks.cfg import CFGNode, build_cfg, node_exprs
from repro.checks.dataflow import solve_forward
from repro.checks.findings import Finding
from repro.checks.locks import _collect_guards
from repro.checks.registry import Analyzer
from repro.checks.source import Project, SourceModule

__all__ = ["ResourceLifecycleAnalyzer", "BLOCKING_CALLS", "LOCKISH_RE"]

#: Final attribute/name components treated as a lock object.
LOCKISH_RE = re.compile(r"(lock|mutex|cond|sem|rlock)", re.IGNORECASE)

#: Method names acquiring a trackable resource when the result is bound.
_ACQUIRE_METHODS = frozenset({"acquire", "open", "connect", "lease"})
#: Method names releasing it.
_RELEASE_METHODS = frozenset({"close", "release", "shutdown", "unlink"})

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


def _is_acquire(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    if isinstance(func, ast.Attribute):
        return func.attr in _ACQUIRE_METHODS
    return False


class _NodeFacts:
    """Per-CFG-node acquire/release/escape effects for RES001."""

    def __init__(self, stmt: ast.stmt):
        self.acquires: list[tuple[str, int]] = []
        self.releases: set[str] = set()
        self.escapes: set[str] = set()
        self._scan(stmt)

    def _scan(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                # any rebind kills the old fact; an acquiring RHS adds one
                self.releases.add(target.id)
                if _is_acquire(stmt.value):
                    self.acquires.append((target.id, stmt.lineno))
            elif isinstance(target, (ast.Attribute, ast.Subscript, ast.Tuple)):
                # stored somewhere longer-lived: every name in the RHS escapes
                for node in ast.walk(stmt.value):
                    if isinstance(node, ast.Name):
                        self.escapes.add(node.id)
        for node in node_exprs(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr in _RELEASE_METHODS and isinstance(
                        func.value, ast.Name
                    ):
                        self.releases.add(func.value.id)
                    # a tracked handle passed as an argument escapes
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, ast.Name):
                        self.escapes.add(arg.id)
        if isinstance(stmt, (ast.Return, ast.Expr)):
            value = stmt.value
            if value is not None:
                for node in ast.walk(value):
                    if isinstance(node, (ast.Name,)) and isinstance(
                        stmt, ast.Return
                    ):
                        self.escapes.add(node.id)
                    if isinstance(node, (ast.Yield, ast.YieldFrom)):
                        for sub in ast.walk(node):
                            if isinstance(sub, ast.Name):
                                self.escapes.add(sub.id)


class ResourceLifecycleAnalyzer(Analyzer):
    name = "resource-lifecycle"
    description = "handles released on every path; no blocking under a lock"
    codes = {
        "RES001": "resource acquired but not released on some exit path",
        "RES002": "blocking operation while holding a lock",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        for mod in project.modules:
            if mod.tree is None or mod.relaxed:
                continue
            guards_by_class = self._class_guards(mod)
            for node in ast.walk(mod.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_leaks(mod, node)
            yield from self._check_blocking(mod, guards_by_class)

    # -- RES001 ---------------------------------------------------------------
    def _check_leaks(
        self, mod: SourceModule, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        cfg = build_cfg(func)
        facts = {
            n.uid: _NodeFacts(n.stmt)
            for n in cfg.stmt_nodes()
            if n.stmt is not None
        }
        if not any(f.acquires for f in facts.values()):
            return

        def apply(node: CFGNode, state, with_acquires: bool):
            fact = facts.get(node.uid)
            if fact is None:
                return state
            out = {
                (name, line)
                for name, line in state
                if name not in fact.releases and name not in fact.escapes
            }
            if with_acquires:
                out |= set(fact.acquires)
            return frozenset(out)

        state_in, _ = solve_forward(
            cfg,
            lambda node, state: apply(node, state, with_acquires=True),
            transfer_exc=lambda node, state: apply(node, state, with_acquires=False),
            init=frozenset(),
            join=lambda a, b: a | b,
        )
        seen: set[tuple[str, int, str]] = set()
        for exit_uid, where in ((cfg.raise_exit, "an exception path"),
                                (cfg.exit, "a return path")):
            for name, line in sorted(state_in.get(exit_uid, frozenset())):
                if (name, line, where) in seen:
                    continue
                seen.add((name, line, where))
                if mod.is_suppressed(line, "RES001"):
                    continue
                yield self.finding(
                    "RES001", mod, line,
                    f"{func.name}: {name!r} acquired here may never be "
                    f"released on {where}",
                    hint="use `with`, or release in a `finally:` block",
                )

    # -- RES002 ---------------------------------------------------------------
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
