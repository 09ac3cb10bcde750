"""Unit tests for the flow engine: CFG construction, the worklist
dataflow solver, and project call-graph resolution."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.checks.callgraph import build_callgraph, module_name_for
from repro.checks.cfg import build_cfg, node_calls, node_exprs
from repro.checks.dataflow import solve_forward
from repro.checks.source import Project, load_module
from repro.errors import ReproError


def cfg_for(src: str):
    fn = ast.parse(textwrap.dedent(src)).body[0]
    return build_cfg(fn)


def node_by_source(cfg, fragment: str):
    for node in cfg.stmt_nodes():
        if node.stmt is not None and fragment in ast.unparse(node.stmt).split("\n")[0]:
            return node
    raise AssertionError(f"no CFG node matching {fragment!r}")


def edges(cfg, uid):
    return {(e.target, e.kind) for e in cfg.succs[uid]}


# -- CFG construction --------------------------------------------------------

def test_if_else_branches_rejoin():
    cfg = cfg_for("""
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
    """)
    header = node_by_source(cfg, "if x")
    then = node_by_source(cfg, "a = 1")
    other = node_by_source(cfg, "a = 2")
    ret = node_by_source(cfg, "return a")
    assert (then.uid, "normal") in edges(cfg, header.uid)
    assert (other.uid, "normal") in edges(cfg, header.uid)
    assert (ret.uid, "normal") in edges(cfg, then.uid)
    assert (ret.uid, "normal") in edges(cfg, other.uid)


def test_loop_back_edge_and_exit():
    cfg = cfg_for("""
        def f(items):
            total = 0
            for item in items:
                total += item
            return total
    """)
    header = node_by_source(cfg, "for item")
    body = node_by_source(cfg, "total += item")
    assert (header.uid, "back") in edges(cfg, body.uid)
    ret = node_by_source(cfg, "return total")
    assert (ret.uid, "normal") in edges(cfg, header.uid)


def test_while_true_has_no_false_edge():
    cfg = cfg_for("""
        def f(q):
            while True:
                item = q.get()
            unreachable = 1
    """)
    header = node_by_source(cfg, "while True")
    targets = {
        e.target for e in cfg.succs[header.uid] if e.kind in ("normal",)
    }
    body = node_by_source(cfg, "item = q.get()")
    assert targets == {body.uid}


def test_exception_edges_route_to_handler_then_outward():
    cfg = cfg_for("""
        def f(path):
            try:
                data = parse(path)
            except ValueError:
                data = None
            return data
    """)
    risky = node_by_source(cfg, "data = parse")
    handler_targets = {
        e.target for e in cfg.succs[risky.uid] if e.kind == "exception"
    }
    # A narrow handler still lets other exception types escape outward.
    assert cfg.raise_exit in handler_targets
    handler_entries = handler_targets - {cfg.raise_exit}
    assert len(handler_entries) == 1
    body = node_by_source(cfg, "data = None")
    (entry,) = handler_entries
    assert (body.uid, "normal") in edges(cfg, entry)


def test_broad_handler_stops_outward_exception_edges():
    cfg = cfg_for("""
        def f(path):
            try:
                data = parse(path)
            except Exception:
                data = None
            return data
    """)
    risky = node_by_source(cfg, "data = parse")
    handler_targets = {
        e.target for e in cfg.succs[risky.uid] if e.kind == "exception"
    }
    assert cfg.raise_exit not in handler_targets


def test_finally_runs_on_both_continuations():
    cfg = cfg_for("""
        def f(path):
            fh = acquire(path)
            try:
                risky(fh)
            finally:
                fh.close()
            return True
    """)
    risky = node_by_source(cfg, "risky(fh)")
    close = node_by_source(cfg, "fh.close()")
    assert (close.uid, "exception") in edges(cfg, risky.uid)
    assert (close.uid, "normal") in edges(cfg, risky.uid)


def test_return_routes_through_finally_not_past_it():
    cfg = cfg_for("""
        def f(path):
            fh = open(path)
            try:
                return fh.read()
            finally:
                fh.close()
    """)
    ret = node_by_source(cfg, "return fh.read()")
    close = node_by_source(cfg, "fh.close()")
    assert edges(cfg, ret.uid) == {(close.uid, "normal"), (close.uid, "exception")}
    assert (cfg.exit, "normal") in edges(cfg, close.uid)


def test_try_header_carries_no_exception_edge():
    cfg = cfg_for("""
        def f(path):
            try:
                touch(path)
            finally:
                done()
    """)
    header = node_by_source(cfg, "try:")
    assert all(e.kind != "exception" for e in cfg.succs[header.uid])


def test_with_body_is_sequenced():
    cfg = cfg_for("""
        def f(path):
            with open(path) as fh:
                data = fh.read()
            return data
    """)
    wnode = node_by_source(cfg, "with open")
    body = node_by_source(cfg, "data = fh.read()")
    assert (body.uid, "normal") in edges(cfg, wnode.uid)


def test_node_exprs_prunes_nested_defs():
    stmt = ast.parse(textwrap.dedent("""
        def outer():
            return inner()
    """)).body[0]
    calls = [ast.unparse(c.func) for c in node_calls(stmt)]
    assert calls == []  # decorator-less def header owns no calls


# -- dataflow solver ---------------------------------------------------------

def test_solver_reaches_fixpoint_over_loop():
    cfg = cfg_for("""
        def f(items):
            seen = set()
            for item in items:
                seen.add(item)
            return seen
    """)
    # Gen-only analysis: collect the lines visited on each node's entry.
    def transfer(node, state):
        return state | {node.line} if node.stmt is not None else state

    state_in, state_out = solve_forward(
        cfg, transfer, init=frozenset(), join=lambda a, b: a | b,
    )
    ret = node_by_source(cfg, "return seen")
    assigned = node_by_source(cfg, "seen = set()")
    loop_body = node_by_source(cfg, "seen.add(item)")
    # Everything before the return (including loop body) flowed into it.
    assert {assigned.line, loop_body.line} <= set(state_in[ret.uid])


def test_solver_raises_on_divergence():
    cfg = cfg_for("""
        def f(x):
            while x:
                x = step(x)
    """)

    class Counter:
        n = 0

    def diverging(node, state):
        Counter.n += 1
        return frozenset({Counter.n})  # never stabilises

    with pytest.raises(ReproError):
        solve_forward(
            cfg, diverging, init=frozenset(), join=lambda a, b: a | b,
            max_iterations=50,
        )


# -- call graph --------------------------------------------------------------

def write_project(tmp_path: Path, files: dict[str, str]) -> Project:
    modules = []
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
        modules.append(load_module(path, rel))
    return Project(root=tmp_path, modules=modules)


def test_module_name_for():
    assert module_name_for("src/repro/rt/shard.py") == "repro.rt.shard"
    assert module_name_for("src/repro/rt/__init__.py") == "repro.rt"
    assert module_name_for("benchmarks/bench_ablations.py") is None


def test_calls_resolve_through_imports(tmp_path):
    project = write_project(tmp_path, {
        "src/repro/a.py": """
            def helper():
                return 1
        """,
        "src/repro/b.py": """
            from repro.a import helper

            def caller():
                return helper()
        """,
    })
    graph = build_callgraph(project)
    caller = graph.functions[("src/repro/b.py", "caller")]
    callees = {f.key for f in graph.callees(caller)}
    assert ("src/repro/a.py", "helper") in callees


def test_calls_resolve_through_alias_and_attribute(tmp_path):
    project = write_project(tmp_path, {
        "src/repro/a.py": """
            def helper():
                return 1
        """,
        "src/repro/b.py": """
            import repro.a as lib

            def caller():
                return lib.helper()
        """,
    })
    graph = build_callgraph(project)
    caller = graph.functions[("src/repro/b.py", "caller")]
    assert ("src/repro/a.py", "helper") in {f.key for f in graph.callees(caller)}


def test_self_method_and_nested_def_resolution(tmp_path):
    project = write_project(tmp_path, {
        "src/repro/c.py": """
            class Widget:
                def outer(self):
                    def inner():
                        return 2
                    return self.step() + inner()

                def step(self):
                    return 1
        """,
    })
    graph = build_callgraph(project)
    outer = graph.functions[("src/repro/c.py", "Widget.outer")]
    callees = {f.key[1] for f in graph.callees(outer)}
    assert "Widget.step" in callees
    assert "Widget.outer.<locals>.inner" in callees
