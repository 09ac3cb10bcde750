"""simmpi protocol analyzer (``CCM``): rank-divergent communication.

The bug class: SPMD code where different ranks take different paths
through communication calls.  A collective (``bcast``, ``allgather``,
...) must be entered by *every* rank of the communicator; a blocking
``send`` needs a matching ``recv`` on the peer's path; two ranks that
both block in ``recv`` before either sends deadlock.  DASSA's Alg 2/3
structure — an aggregator rank doing different work from the worker
ranks — is exactly the shape that breeds these bugs.

All three codes are flow-sensitive and (via the call graph) transitive:
a branch "contains" an operation if any statement in its CFG extent
performs it directly *or* calls — at any depth through project code — a
function that does.

``CCM001``
    a rank-conditional branch whose arms reach *different sets* of
    collective kinds.  Extents are CFG-reachable sets from each arm
    entry (bounded at the ``if`` header), so an arm that returns early
    correctly excludes the post-join code the other ranks still run,
    and a collective called in *both* arms (the parallel-read
    aggregator pattern) compares equal.
``CCM002``
    one arm of a rank branch sends (or receives) with no matching
    receive (send) anywhere on the other arm's extent — the unmatched
    message waits forever.
``CCM003``
    a blocking receive on a rank-*unconditional* path with a send
    reachable after it: every rank blocks receiving before any rank
    sends.  Receives inside rank-divergent arms are exempt — a
    parity-ordered exchange (even ranks send first, odd ranks receive
    first) is the blessed fix, not a bug.

Detection is name-based (method-call names on any receiver), so the
analyzer needs no import of simmpi itself and works on fixtures; the
names are the :class:`~repro.simmpi.communicator.Communicator` and
:class:`~repro.simmpi.fabric.Fabric` vocabulary.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.callgraph import CallGraph, FunctionInfo, build_callgraph
from repro.checks.cfg import CFG, build_cfg, node_calls, node_exprs
from repro.checks.findings import Finding
from repro.checks.registry import Analyzer
from repro.checks.source import Project, SourceModule

__all__ = ["CommProtocolAnalyzer", "COLLECTIVES", "SEND_OPS", "BLOCKING_RECV_OPS"]

#: Communicator methods every rank must enter together.
COLLECTIVES = frozenset({"bcast", "gather", "allgather", "alltoall", "allreduce"})
#: Message-producing calls (fabric ``post`` included).
SEND_OPS = frozenset({"send", "post"})
#: Message-consuming calls, blocking or not.
RECV_OPS = frozenset({"recv", "match", "match_nowait"})
#: The subset that blocks the caller until a message arrives.
BLOCKING_RECV_OPS = frozenset({"recv", "match"})

_FLOW = frozenset({"normal", "back"})


def _op_name(call: ast.Call) -> str | None:
    """Method-call name, when it is comm vocabulary; None otherwise."""
    if isinstance(call.func, ast.Attribute):
        name = call.func.attr
        if name in COLLECTIVES or name in SEND_OPS or name in RECV_OPS:
            return name
    return None


class _Summary:
    """What one function does communication-wise, directly."""

    __slots__ = ("collectives", "sends", "recvs", "blocking_recvs")

    def __init__(self) -> None:
        self.collectives: set[str] = set()
        self.sends = False
        self.recvs = False
        self.blocking_recvs = False

    def absorb(self, other: "_Summary") -> None:
        self.collectives |= other.collectives
        self.sends = self.sends or other.sends
        self.recvs = self.recvs or other.recvs
        self.blocking_recvs = self.blocking_recvs or other.blocking_recvs

    def note(self, op: str) -> None:
        if op in COLLECTIVES:
            self.collectives.add(op)
        if op in SEND_OPS:
            self.sends = True
        if op in RECV_OPS:
            self.recvs = True
        if op in BLOCKING_RECV_OPS:
            self.blocking_recvs = True

    @property
    def any(self) -> bool:
        return bool(self.collectives) or self.sends or self.recvs


def _is_rank_test(stmt: ast.stmt) -> bool:
    """True for ``if`` headers branching on a rank identity (``rank``,
    ``comm.rank == 0``, ``self.comm.rank % 2``, ...).  A rank passed as
    a *call argument* (``fabric.is_failed(comm.rank)``) is data, not a
    role decision, so calls are pruned from the walk."""
    if not isinstance(stmt, ast.If):
        return False
    stack: list[ast.AST] = [stmt.test]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            continue
        if isinstance(node, ast.Name) and node.id == "rank":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


class CommProtocolAnalyzer(Analyzer):
    name = "simmpi-protocol"
    description = "rank-divergent collectives, unmatched sends, recv ordering"
    codes = {
        "CCM001": "collective reached by some ranks but not others",
        "CCM002": "rank-conditional send/recv with no match on the other arm",
        "CCM003": "blocking recv before send on a rank-unconditional path",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        graph = build_callgraph(project)
        direct = self._direct_summaries(graph)
        transitive = self._transitive_summaries(graph, direct)
        for mod in project.modules:
            if mod.tree is None or mod.relaxed:
                continue
            for func in graph.functions_in(mod.rel):
                yield from self._check_function(mod, func, graph, direct, transitive)

    # -- summaries -------------------------------------------------------------
    def _direct_summaries(
        self, graph: CallGraph
    ) -> dict[tuple[str, str], _Summary]:
        from repro.checks.callgraph import own_calls

        out: dict[tuple[str, str], _Summary] = {}
        for key, func in graph.functions.items():
            summary = _Summary()
            for call in own_calls(func.node):
                op = _op_name(call)
                if op is not None:
                    summary.note(op)
            out[key] = summary
        return out

    def _transitive_summaries(
        self,
        graph: CallGraph,
        direct: dict[tuple[str, str], _Summary],
    ) -> dict[tuple[str, str], _Summary]:
        out: dict[tuple[str, str], _Summary] = {}
        for key, func in graph.functions.items():
            summary = _Summary()
            summary.absorb(direct[key])
            for callee in graph.transitive_closure_calls(func):
                if callee in direct:
                    summary.absorb(direct[callee])
            out[key] = summary
        return out

    # -- per-extent op collection ----------------------------------------------
    def _extent_summary(
        self,
        mod: SourceModule,
        cfg: CFG,
        extent: set[int],
        graph: CallGraph,
        transitive: dict[tuple[str, str], _Summary],
    ) -> _Summary:
        summary = _Summary()
        for uid in extent:
            node = cfg.nodes[uid]
            if node.kind != "stmt" or node.stmt is None:
                continue
            for call in node_calls(node.stmt):
                op = _op_name(call)
                if op is not None:
                    summary.note(op)
                callee = graph.resolve_site(mod.rel, call)
                if callee is not None:
                    summary.absorb(transitive[callee.key])
        return summary

    def _arm_extents(self, cfg: CFG, if_uid: int) -> list[set[int]]:
        """One CFG extent per normal successor of a branch header,
        bounded at the header itself (so a loop around the ``if`` does
        not bleed one arm into the other)."""
        targets: list[int] = []
        for edge in cfg.succs.get(if_uid, ()):
            if edge.kind == "normal" and edge.target not in targets:
                targets.append(edge.target)
        return [
            cfg.reachable_from(t, kinds=_FLOW, stop=frozenset({if_uid}))
            for t in targets
        ]

    # -- the checks ------------------------------------------------------------
    def _check_function(
        self,
        mod: SourceModule,
        func: FunctionInfo,
        graph: CallGraph,
        direct: dict[tuple[str, str], _Summary],
        transitive: dict[tuple[str, str], _Summary],
    ) -> Iterator[Finding]:
        # Fast path: nothing comm-ish here or below — skip the CFG.
        if not transitive[func.key].any:
            return
        cfg = build_cfg(func.node)
        divergent: set[int] = set()
        rank_ifs: list[tuple[int, ast.stmt]] = []
        for node in cfg.stmt_nodes():
            if node.stmt is not None and _is_rank_test(node.stmt):
                rank_ifs.append((node.uid, node.stmt))

        for if_uid, if_stmt in rank_ifs:
            extents = self._arm_extents(cfg, if_uid)
            for extent in extents:
                divergent |= extent
            arms = []
            for extent in extents:
                summary = self._extent_summary(mod, cfg, extent, graph, transitive)
                # A guard arm that only raises (never reaches a normal
                # return, performs no comm) is an error path, not a rank
                # role — ``if dest == self.rank: raise`` must not read
                # as "one rank diverges here".
                if cfg.exit not in extent and not summary.any:
                    continue
                arms.append(summary)
            if len(arms) < 2:
                continue
            yield from self._check_collectives(mod, func, if_stmt, arms)
            yield from self._check_matching(mod, func, if_stmt, arms)

        yield from self._check_recv_order(
            mod, func, cfg, divergent, graph, transitive
        )

    def _check_collectives(
        self, mod: SourceModule, func: FunctionInfo, if_stmt: ast.stmt,
        arms: list[_Summary],
    ) -> Iterator[Finding]:
        kind_sets = [frozenset(a.collectives) for a in arms]
        if len(set(kind_sets)) <= 1:
            return
        if mod.node_suppressed(if_stmt, "CCM001"):
            return
        shown = " vs ".join(
            "{" + ", ".join(sorted(k)) + "}" if k else "{}" for k in kind_sets
        )
        yield self.finding(
            "CCM001", mod, if_stmt.lineno,
            f"{func.qualname}: rank-conditional branch reaches different "
            f"collectives per arm: {shown} — ranks taking the poorer arm "
            f"never enter the missing collective",
            hint="hoist the collective out of the rank branch, or call it "
                 "in every arm (see storage/parallel_read.py)",
        )

    def _check_matching(
        self, mod: SourceModule, func: FunctionInfo, if_stmt: ast.stmt,
        arms: list[_Summary],
    ) -> Iterator[Finding]:
        if mod.node_suppressed(if_stmt, "CCM002"):
            return
        for i, arm in enumerate(arms):
            others = [a for j, a in enumerate(arms) if j != i]
            if arm.sends and not any(o.recvs for o in others):
                yield self.finding(
                    "CCM002", mod, if_stmt.lineno,
                    f"{func.qualname}: one arm of a rank branch sends but "
                    f"the other arm never receives — the message is "
                    f"unmatched",
                    hint="receive on the peer ranks' path, or order a "
                         "symmetric exchange by rank parity (even ranks "
                         "send then recv, odd ranks recv then send)",
                )
                return
            if arm.blocking_recvs and not any(o.sends for o in others):
                yield self.finding(
                    "CCM002", mod, if_stmt.lineno,
                    f"{func.qualname}: one arm of a rank branch blocks in "
                    f"recv but the other arm never sends — the recv can "
                    f"never complete",
                    hint="send on the peer ranks' path, or use a "
                         "non-blocking probe (fabric.match_nowait)",
                )
                return

    def _check_recv_order(
        self,
        mod: SourceModule,
        func: FunctionInfo,
        cfg: CFG,
        divergent: set[int],
        graph: CallGraph,
        transitive: dict[tuple[str, str], _Summary],
    ) -> Iterator[Finding]:
        for node in cfg.stmt_nodes():
            if node.uid in divergent or node.stmt is None:
                continue
            blocking_call = None
            for call in node_calls(node.stmt):
                op = _op_name(call)
                if op in BLOCKING_RECV_OPS:
                    blocking_call = call
                    break
                callee = graph.resolve_site(mod.rel, call)
                if callee is not None and transitive[callee.key].blocking_recvs:
                    blocking_call = call
                    break
            if blocking_call is None:
                continue
            after = cfg.reachable_from(node.uid, kinds=_FLOW) - {node.uid}
            sends_after = False
            for uid in after:
                later = cfg.nodes[uid]
                if later.kind != "stmt" or later.stmt is None or uid in divergent:
                    continue
                for call in node_calls(later.stmt):
                    op = _op_name(call)
                    if op in SEND_OPS:
                        sends_after = True
                        break
                    callee = graph.resolve_site(mod.rel, call)
                    if callee is not None and transitive[callee.key].sends:
                        sends_after = True
                        break
                if sends_after:
                    break
            if not sends_after:
                continue
            if mod.node_suppressed(node.stmt, "CCM003"):
                continue
            yield self.finding(
                "CCM003", mod, node.line,
                f"{func.qualname}: blocking recv on a rank-unconditional "
                f"path with a send after it — every rank waits to receive "
                f"before any rank sends",
                hint="send first on half the ranks (rank-parity "
                     "ordering), or poll with comm.fabric.match_nowait",
            )
