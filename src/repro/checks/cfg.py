"""Per-function control-flow graphs for the flow-sensitive analyzers.

One :class:`CFG` per ``def``: statement-granularity nodes plus synthetic
``entry`` / ``exit`` / ``raise_exit`` nodes, connected by edges labelled

``normal``
    ordinary fall-through, branch, and call-return flow;
``back``
    a loop back-edge (``while``/``for`` body returning to the header) —
    the same reachability as ``normal``, tagged so tests and widening
    heuristics can tell the two apart;
``exception``
    flow taken when the statement raises.  Every statement is
    conservatively assumed to be able to raise (almost anything in
    Python can: attribute access, indexing, arithmetic, any call), so
    every statement node carries an exception edge to the innermost
    enclosing handler — each ``except`` clause entry — and, unless one
    of those clauses is broad (``except:`` / ``except Exception`` /
    ``BaseException``), onward to the next enclosing frame, ending at
    ``raise_exit`` (the exception leaves the function).

``try/finally`` is modelled with a single copy of the ``finally`` body:
the normal path runs body → finally → after, and the exception path
enters the same finally block, whose *exception continuation* edge leads
to the outer handler.  The known approximation: after an exceptional
entry the single shared copy also reaches the normal ``after``
successor, which can only add paths (safe for may-analyses like leak
detection, which is what this engine runs).

``break``/``continue`` jump to the innermost loop's after/header;
``return`` edges to ``exit`` — or, inside a ``try/finally``, to the
innermost pending finally region, whose frontier then gains an exit
edge (with nested finallies the single-copy approximation may let that
path skip intermediate copies; again this only adds paths).  ``raise``
edges to the exception target only.  ``while True`` (any truthy
constant) gets no false edge, so code
after an escape-free infinite loop is correctly unreachable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "CFG", "CFGNode", "Edge", "build_cfg", "node_exprs", "node_calls",
    "BROAD_HANDLERS",
]

#: Handler names that catch everything a library can throw.
BROAD_HANDLERS = frozenset({"Exception", "BaseException"})

ENTRY = "entry"
EXIT = "exit"
RAISE_EXIT = "raise-exit"


@dataclass
class CFGNode:
    """One CFG node: a statement, or a synthetic entry/exit marker."""

    uid: int
    kind: str  # "stmt" | "entry" | "exit" | "raise-exit"
    stmt: ast.stmt | None = None

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


@dataclass(frozen=True)
class Edge:
    target: int
    kind: str  # "normal" | "back" | "exception"


@dataclass
class CFG:
    """The graph; ``succs[uid]`` lists outgoing edges."""

    func: ast.FunctionDef | ast.AsyncFunctionDef
    nodes: dict[int, CFGNode] = field(default_factory=dict)
    succs: dict[int, list[Edge]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 1
    raise_exit: int = 2

    def preds(self) -> dict[int, list[Edge]]:
        """Reverse adjacency (computed on demand)."""
        rev: dict[int, list[Edge]] = {uid: [] for uid in self.nodes}
        for src, edges in self.succs.items():
            for edge in edges:
                rev[edge.target].append(Edge(src, edge.kind))
        return rev

    def reachable_from(
        self,
        start: int,
        kinds: frozenset[str] | None = None,
        stop: frozenset[int] = frozenset(),
    ) -> set[int]:
        """Every node reachable from ``start`` (inclusive) along edges
        whose kind is in ``kinds`` (default: all kinds).  Nodes in
        ``stop`` are neither entered nor traversed — used to bound a
        branch arm's extent at its own ``if`` header."""
        if start in stop:
            return set()
        seen = {start}
        stack = [start]
        while stack:
            uid = stack.pop()
            for edge in self.succs.get(uid, ()):
                if kinds is not None and edge.kind not in kinds:
                    continue
                if edge.target in stop or edge.target in seen:
                    continue
                seen.add(edge.target)
                stack.append(edge.target)
        return seen

    def stmt_nodes(self) -> list[CFGNode]:
        return [n for n in self.nodes.values() if n.kind == "stmt"]


class _Builder:
    """Recursive-descent CFG construction.

    ``exc_targets`` is the current exception continuation: the list of
    node uids an exception from here may flow to (handler entries plus,
    when no broad handler guards this frame, the outer continuation).
    """

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef):
        self.cfg = CFG(func=func)
        self.cfg.nodes[0] = CFGNode(0, ENTRY)
        self.cfg.nodes[1] = CFGNode(1, EXIT)
        self.cfg.nodes[2] = CFGNode(2, RAISE_EXIT)
        for uid in (0, 1, 2):
            self.cfg.succs[uid] = []
        self._next = 3
        # Pending finally regions (innermost last): a ``return`` inside
        # a try/finally must run the finally body before reaching exit.
        self._fin: list[dict] = []

    def build(self) -> CFG:
        last = self._seq(
            self.cfg.func.body,
            preds=[(self.cfg.entry, "normal")],
            exc=[self.cfg.raise_exit],
            loop=None,
        )
        self._connect(last, self.cfg.exit, "normal")
        return self.cfg

    # -- plumbing -------------------------------------------------------------
    def _new(self, stmt: ast.stmt) -> int:
        uid = self._next
        self._next += 1
        self.cfg.nodes[uid] = CFGNode(uid, "stmt", stmt)
        self.cfg.succs[uid] = []
        return uid

    def _edge(self, src: int, dst: int, kind: str) -> None:
        edge = Edge(dst, kind)
        if edge not in self.cfg.succs[src]:
            self.cfg.succs[src].append(edge)

    def _connect(self, frontier: list[tuple[int, str]], dst: int, kind_default: str) -> None:
        for src, kind in frontier:
            self._edge(src, dst, kind if kind != "normal" else kind_default)

    # -- statement sequencing --------------------------------------------------
    def _seq(
        self,
        stmts: list[ast.stmt],
        preds: list[tuple[int, str]],
        exc: list[int],
        loop: tuple[int, list[tuple[int, str]]] | None,
    ) -> list[tuple[int, str]]:
        """Wire ``stmts`` one after another; returns the dangling
        frontier (node, edge-kind) pairs that should flow to whatever
        comes next.  ``loop`` is ``(header_uid, break_frontier)``."""
        frontier = preds
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier, exc, loop)
            if not frontier:  # everything returned/raised/broke
                break
        return frontier

    def _stmt(
        self,
        stmt: ast.stmt,
        preds: list[tuple[int, str]],
        exc: list[int],
        loop: tuple[int, list[tuple[int, str]]] | None,
    ) -> list[tuple[int, str]]:
        uid = self._new(stmt)
        self._connect(preds, uid, "normal")
        if not isinstance(stmt, ast.Try):
            # The try header is a structural no-op: its body statements
            # carry their own exception edges (wired in _try), and an
            # edge from the header itself would leak pre-try state
            # straight past the handlers and the finally.
            for target in exc:
                self._edge(uid, target, "exception")

        if isinstance(stmt, (ast.If,)):
            then_f = self._seq(stmt.body, [(uid, "normal")], exc, loop)
            else_f = (
                self._seq(stmt.orelse, [(uid, "normal")], exc, loop)
                if stmt.orelse
                else [(uid, "normal")]
            )
            return then_f + else_f

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            breaks: list[tuple[int, str]] = []
            body_f = self._seq(stmt.body, [(uid, "normal")], exc, (uid, breaks))
            for src, _kind in body_f:
                self._edge(src, uid, "back")
            infinite = (
                isinstance(stmt, ast.While)
                and isinstance(stmt.test, ast.Constant)
                and bool(stmt.test.value)
            )
            exhaust: list[tuple[int, str]] = [] if infinite else [(uid, "normal")]
            if stmt.orelse:
                exhaust = self._seq(stmt.orelse, exhaust, exc, loop) if exhaust else []
            return exhaust + breaks

        if isinstance(stmt, ast.Break):
            if loop is not None:
                loop[1].append((uid, "normal"))
            return []

        if isinstance(stmt, ast.Continue):
            if loop is not None:
                self._edge(uid, loop[0], "back")
            return []

        if isinstance(stmt, ast.Return):
            if self._fin:
                # Route through the innermost pending finally; the
                # finally's frontier gets an exit edge below (single-copy
                # approximation — a nested return may skip intermediate
                # finallies on the way out, see module docstring).
                self._edge(uid, self._fin[-1]["entry"], "normal")
                for frame in self._fin:
                    frame["wants_exit"] = True
            else:
                self._edge(uid, self.cfg.exit, "normal")
            return []

        if isinstance(stmt, ast.Raise):
            # Only the exception edges added above apply.
            return []

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._seq(stmt.body, [(uid, "normal")], exc, loop)

        if isinstance(stmt, ast.Try):
            return self._try(stmt, uid, exc, loop)

        if isinstance(stmt, ast.Match):
            frontier: list[tuple[int, str]] = []
            exhausted = True
            for case in stmt.cases:
                frontier += self._seq(case.body, [(uid, "normal")], exc, loop)
                if (
                    isinstance(case.pattern, (ast.MatchAs,))
                    and case.pattern.pattern is None
                    and case.guard is None
                ):
                    exhausted = False  # wildcard case: no fall-through
            if exhausted:
                frontier.append((uid, "normal"))
            return frontier

        # Plain statement (expr, assign, assert, import, nested def, ...).
        return [(uid, "normal")]

    def _try(
        self,
        stmt: ast.Try,
        uid: int,
        exc: list[int],
        loop: tuple[int, list[tuple[int, str]]] | None,
    ) -> list[tuple[int, str]]:
        # The finally block, if present, becomes the continuation of both
        # the normal and the exceptional path.
        handler_entries: list[int] = []
        broad = False
        for handler in stmt.handlers:
            names = _handler_names(handler)
            if not names or names & BROAD_HANDLERS:
                broad = True

        # Build handler bodies lazily: we need their entry uids first to
        # give try-body statements their exception targets.
        # Synthesise one node per handler clause (the `except X:` line).
        for handler in stmt.handlers:
            huid = self._new(handler_stmt_proxy(handler))
            handler_entries.append(huid)

        # Exception continuation for code inside the try body: the
        # handlers, plus the outer targets unless some handler is broad.
        finally_exc_entry: list[int] = []
        if stmt.finalbody:
            # One shared finally region; exceptions route through it.
            fin_first = self._peek_uid()
            fin_frontier = self._seq(
                stmt.finalbody, [], exc, loop
            )  # wired below via preds
            finally_exc_entry = [fin_first]
            outer_after_finally = fin_frontier
        else:
            outer_after_finally = None

        inner_exc = list(handler_entries) + ([] if broad else (finally_exc_entry or exc))
        if stmt.finalbody and broad is False and not handler_entries:
            inner_exc = finally_exc_entry
        if not inner_exc:
            inner_exc = finally_exc_entry or exc

        fin_frame: dict | None = None
        if stmt.finalbody:
            # Returns inside the body/handlers must run the finally first.
            fin_frame = {"entry": finally_exc_entry[0], "wants_exit": False}
            self._fin.append(fin_frame)

        body_f = self._seq(stmt.body, [(uid, "normal")], inner_exc, loop)
        if stmt.orelse:
            body_f = self._seq(stmt.orelse, body_f, inner_exc, loop)

        # Handler bodies: exceptions inside a handler go to the finally
        # (if any) or the outer continuation.
        handler_exc = finally_exc_entry or exc
        handler_f: list[tuple[int, str]] = []
        for handler, huid in zip(stmt.handlers, handler_entries):
            for target in handler_exc:
                self._edge(huid, target, "exception")
            handler_f += self._seq(handler.body, [(huid, "normal")], handler_exc, loop)

        if fin_frame is not None:
            self._fin.pop()

        after_try = body_f + handler_f
        if stmt.finalbody:
            # Normal completion also runs the finally region.
            self._connect(after_try, finally_exc_entry[0], "normal")
            if fin_frame is not None and fin_frame["wants_exit"]:
                # Some return routed through this finally: after it runs,
                # that path leaves the function.
                self._connect(
                    outer_after_finally or [], self.cfg.exit, "normal"
                )
            # The finally region's exception continuation is the outer one.
            # (Its statements already carry exception edges to ``exc``.)
            # After the finally, fall through to whatever follows the try
            # (single-copy approximation, see module docstring); the
            # exceptional path out of the finally is the exception edges
            # its statements carry.
            return outer_after_finally or []
        return after_try

    def _peek_uid(self) -> int:
        return self._next


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    node = handler.type
    if node is None:
        return set()
    names: set[str] = set()
    for sub in [node] if not isinstance(node, ast.Tuple) else node.elts:
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names or {"<dynamic>"}


def handler_stmt_proxy(handler: ast.ExceptHandler) -> ast.stmt:
    """An ``ast.stmt`` stand-in so a handler clause can live in a CFGNode
    (``ExceptHandler`` itself is not a statement)."""
    proxy = ast.Pass()
    proxy.lineno = handler.lineno
    proxy.col_offset = handler.col_offset
    proxy._handler = handler  # type: ignore[attr-defined]
    return proxy


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the CFG for one function definition."""
    return _Builder(func).build()


def node_exprs(stmt: ast.stmt):
    """The expressions *this* CFG node evaluates, pruned of nested
    scopes.

    A compound statement's CFG node covers only its header (an ``if``
    node evaluates the test; its body statements are their own nodes),
    and nested ``def``/``lambda`` bodies belong to the nested function,
    so both are excluded from the walk.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        roots: list[ast.AST] = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        roots = [stmt.target, stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, ast.Try):
        roots = []
    elif isinstance(stmt, ast.Match):
        roots = [stmt.subject]
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        roots = list(stmt.decorator_list)
    else:
        roots = [stmt]
    stack = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def node_calls(stmt: ast.stmt) -> list[ast.Call]:
    """Call expressions evaluated by this CFG node (see node_exprs)."""
    return [n for n in node_exprs(stmt) if isinstance(n, ast.Call)]
