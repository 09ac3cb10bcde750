"""Lock-discipline analyzer (``LCK``).

The convention: an instance attribute whose assignment carries a
``# guarded-by: <lock-attr>`` comment is shared mutable state protected
by ``self.<lock-attr>``.  Every *mutation* of that attribute —

* assignment / augmented assignment / ``del`` of ``self.attr``, of
  ``self.attr[key]`` or of ``self.attr.field``,
* a mutating method call (``append``, ``pop``, ``update``, ``clear``,
  ``add``, ``move_to_end``, ...) on ``self.attr``,
* ``setattr(self, ...)`` in a class that has guarded attributes

— must happen lexically inside a ``with self.<lock-attr>:`` block, or in
a method marked ``# holds-lock`` (documented as called with the lock
held).  ``__init__``-family methods are exempt: the instance is not yet
shared during construction.  Reads are deliberately not checked — the
repo's snapshot-style readers take the lock where consistency matters,
and flagging every read would drown the signal.

Code held inside a nested ``def``/``lambda`` does not inherit the
enclosing ``with``: a closure outlives the block that created it, so the
analyzer conservatively treats it as running with no locks held.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.registry import Analyzer
from repro.checks.source import Project, SourceModule

__all__ = ["LockDisciplineAnalyzer", "MUTATING_METHODS"]

#: Method names treated as in-place mutation of their receiver.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "pop", "popleft", "popitem", "remove", "clear", "update",
    "add", "discard", "setdefault", "move_to_end", "sort", "reverse",
    "rotate", "write", "put", "put_nowait",
})

#: Methods where mutation is construction, not sharing.
_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__post_init__", "__init_subclass__"})


def _self_attr(node: ast.expr, self_name: str) -> str | None:
    """The attribute name when ``node`` is ``self.X`` (possibly through
    subscripts / attribute chains rooted at ``self.X``)."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
        ):
            return node.attr
        node = node.value
    return None


def _collect_guards(
    mod: SourceModule, cls: ast.ClassDef
) -> tuple[dict[str, str], set[str]]:
    """``guards``: attr -> lock attr (from ``# guarded-by``) and the set
    of every attribute assigned anywhere in the class (to validate that
    the named lock actually exists)."""
    guards: dict[str, str] = {}
    assigned: set[str] = set()

    def note_assignment(target: ast.expr, line: int, self_name: str | None) -> None:
        if isinstance(target, ast.Name) and self_name is None:
            attr = target.id  # class-level (dataclass field) assignment
        elif self_name is not None:
            attr = _self_attr(target, self_name)
            if attr is None:
                return
        else:
            return
        assigned.add(attr)
        lock = mod.guarded_on(line)
        if lock is not None:
            guards[attr] = lock

    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                note_assignment(t, stmt.lineno, None)
        elif isinstance(stmt, ast.AnnAssign):
            note_assignment(stmt.target, stmt.lineno, None)
        elif isinstance(stmt, ast.FunctionDef):
            self_name = stmt.args.args[0].arg if stmt.args.args else "self"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        note_assignment(t, node.lineno, self_name)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    note_assignment(node.target, node.lineno, self_name)
    return guards, assigned


class LockDisciplineAnalyzer(Analyzer):
    name = "lock-discipline"
    description = "guarded attributes only mutate under their lock"
    codes = {
        "LCK001": "guarded attribute mutated outside its lock",
        "LCK002": "guarded-by names a lock attribute the class never assigns",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        for mod in project.modules:
            if mod.tree is None:
                continue
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(mod, node)

    def _check_class(self, mod: SourceModule, cls: ast.ClassDef) -> Iterator[Finding]:
        guards, assigned = _collect_guards(mod, cls)
        if not guards:
            return
        for attr, lock in sorted(guards.items()):
            if lock not in assigned:
                yield self.finding(
                    "LCK002", mod, cls.lineno,
                    f"{cls.name}.{attr} is guarded-by {lock!r}, "
                    f"but the class never assigns self.{lock}",
                    hint="fix the annotation or create the lock in __init__",
                )
        for stmt in cls.body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            if stmt.name in _EXEMPT_METHODS:
                continue
            if mod.holds_lock_on(stmt.lineno) or mod.holds_lock_on(stmt.lineno - 1):
                continue
            self_name = stmt.args.args[0].arg if stmt.args.args else "self"
            yield from self._check_method(mod, cls, stmt, self_name, guards)

    def _check_method(
        self,
        mod: SourceModule,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
        self_name: str,
        guards: dict[str, str],
    ) -> Iterator[Finding]:
        def mutations(node: ast.AST) -> Iterator[str]:
            """Guarded attributes this one node mutates."""
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for t in targets:
                attr = _self_attr(t, self_name)
                if attr in guards:
                    yield attr
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                ):
                    attr = _self_attr(func.value, self_name)
                    if attr in guards:
                        yield attr
                elif (
                    isinstance(func, ast.Name)
                    and func.id == "setattr"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == self_name
                ):
                    # setattr(self, <dynamic>, v): treat as touching every
                    # guarded attribute — it must hold every guard lock.
                    yield from sorted(set(guards))

        findings: list[Finding] = []

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if isinstance(node, ast.With):
                inner = set(held)
                for item in node.items:
                    lock = _self_attr(item.context_expr, self_name)
                    if lock is not None:
                        inner.add(lock)
                    visit(item.context_expr, held)
                for child in node.body:
                    visit(child, frozenset(inner))
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # A closure may run after the with-block exits.
                body = node.body if isinstance(node.body, list) else [node.body]
                for child in body:
                    visit(child, frozenset())
                return
            for attr in set(mutations(node)):
                if guards[attr] not in held and not mod.node_suppressed(node, "LCK001"):
                    findings.append(self.finding(
                        "LCK001", mod, node.lineno,
                        f"{cls.name}.{fn.name} mutates guarded attribute "
                        f"{attr!r} without holding self.{guards[attr]}",
                        hint=f"wrap in `with self.{guards[attr]}:` or mark "
                             f"the method `# holds-lock`",
                    ))
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in fn.body:
            visit(stmt, frozenset())
        yield from findings
