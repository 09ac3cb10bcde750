"""Operator-contract analyzer (``OPC`` and ``PLN``).

The streaming executor trusts each :class:`~repro.core.pipeline.Operator`
subclass's declared geometry (``halo``/``decimate``/``channel_halo``)
and safety flags (``stream_safe``/``needs_prepass``); a wrong
declaration produces silently-wrong output at chunk seams rather than a
crash, which is exactly the kind of bug a linter should catch before a
test has to.  Subclass membership is resolved *by name across the whole
scanned project* (a class extending ``StaLtaOp`` in another module is
still an operator), with ``Operator``/``SinkOp`` themselves and any
direct aliases excluded.

Checks:

``OPC001`` — ``apply`` reads ``ctx.total`` but the class does not set
    ``stream_safe = False``: depending on the record's final length
    breaks incremental (unbounded-record) execution, where the total is
    unknown until flush.  A deliberately safe use (e.g. a pure
    right-edge clamp fed a growing total) carries
    ``# noqa: OPC001 - reason`` on the offending line.
``OPC002`` — ``needs_prepass = True`` without ``stream_safe = False``:
    a pre-pass reads the whole record, which is the definition of not
    stream-safe.
``OPC003`` — prepass hooks and the ``needs_prepass`` flag disagree
    (flag without the three hooks, or hooks without the flag).
``OPC004`` — a ``SinkOp`` subclass overrides Operator-side hooks
    (``apply``) or declares Operator-side geometry
    (``halo``/``decimate``/``channel_halo``/``stream_safe``).
``OPC005`` — an ``Operator`` subclass overrides sink-side hooks
    (``init``/``consume``/``finalize``).
``OPC006`` — literal contract values are malformed: ``halo`` not a
    2-tuple of ints ``>= 0``, ``decimate < 1``, ``channel_halo < 0``
    (class-level literals and literal ``self.X = ...`` in ``__init__``).
``OPC007`` — a ``SinkOp`` subclass missing any of
    ``init``/``consume``/``finalize``.

The ``PLN`` codes check the planner geometry of the same operator
classes in the same walk.  The query planner
(:mod:`repro.core.optimizer`) composes each operator's declared interval
algebra — ``out_total`` / ``out_core`` / ``out_full`` / ``in_needed`` —
to decide what to read, what each operator is handed, and what each
chunk owns.  A declaration that is internally inconsistent produces
plans that read too little or trim the wrong samples.  The kernel
refuses such a plan before its first read, but only on the one chunking
a run uses (:func:`repro.core.pipeline.run_chunks`), and
:func:`repro.core.graph.verify_geometry` — the exhaustive sweep the test
suite runs over every shipped operator — only on the operators it is
handed.  These checks are the static half of that pair: they flag
declaration *shapes* that cannot be consistent, at review time.

``PLN001`` — the time-grid trio ``out_core`` / ``out_full`` /
    ``in_needed`` is partially overridden: the three methods define one
    output grid, so overriding a strict subset mixes a custom grid with
    the affine default and the composed plan cannot tile.  Override all
    three (plus ``out_total``) or none.
``PLN002`` — ``out_total`` and ``out_core`` disagree about who defines
    the output grid: a custom output length without a custom ownership
    mapping (or the converse) leaves the planner pairing a bespoke grid
    with the default affine one.
``PLN003`` — a literal ``decimate`` != 1 combined with a time-grid
    override: the default algebra already derives the grid from
    ``decimate``; declaring both leaves the defaults that still read it
    (``out_fs``) and the override disagreeing about the sample lattice.
``PLN004`` — a literal non-zero ``halo`` combined with an ``in_needed``
    override: ``in_needed`` *is* the halo declaration, so the literal is
    either redundant or (if they differ) a second, contradicting
    declaration nothing reads.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.registry import Analyzer
from repro.checks.source import Project, SourceModule

__all__ = ["OperatorContractAnalyzer"]

_GEOMETRY_ATTRS = ("halo", "decimate", "channel_halo", "stream_safe")
_PREPASS_HOOKS = ("prepass_init", "prepass_update", "prepass_finalize")
_SINK_HOOKS = ("init", "consume", "finalize")
_LITERAL_ATTRS = ("halo", "decimate", "channel_halo")
_GRID_TRIO = ("out_core", "out_full", "in_needed")


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _literal(node: ast.expr):
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return _NOT_LITERAL


_NOT_LITERAL = object()


class _ClassInfo:
    def __init__(self, mod: SourceModule, node: ast.ClassDef):
        self.mod = mod
        self.node = node
        self.name = node.name
        self.bases = _base_names(node)
        self.methods = {
            s.name: s for s in node.body if isinstance(s, ast.FunctionDef)
        }
        self.class_attrs: dict[str, object] = {}
        self.class_attr_lines: dict[str, int] = {}
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target] if isinstance(stmt.target, ast.Name) else []
                value = stmt.value
            else:
                continue
            for t in targets:
                self.class_attrs[t.id] = _literal(value)
                self.class_attr_lines[t.id] = stmt.lineno

    def init_literal_attrs(self) -> dict[str, tuple[object, int]]:
        """Literal ``self.X = <literal>`` assignments in ``__init__``."""
        out: dict[str, tuple[object, int]] = {}
        init = self.methods.get("__init__")
        if init is None:
            return out
        self_name = init.args.args[0].arg if init.args.args else "self"
        for node in ast.walk(init):
            if not isinstance(node, ast.Assign):
                continue
            for t in node.targets:
                if (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == self_name
                ):
                    value = _literal(node.value)
                    if value is not _NOT_LITERAL:
                        out[t.attr] = (value, node.lineno)
        return out

    def literal_contract(self) -> dict[str, tuple[object, int]]:
        """``halo``/``decimate``/``channel_halo`` declared on the class or
        as a literal in ``__init__`` (which wins), with their lines."""
        out = {
            attr: (self.class_attrs[attr], self.class_attr_lines[attr])
            for attr in _LITERAL_ATTRS
            if attr in self.class_attrs
        }
        for attr, pair in self.init_literal_attrs().items():
            if attr in _LITERAL_ATTRS:
                out[attr] = pair
        return out

    def method_line(self, name: str) -> int:
        fn = self.methods.get(name)
        return fn.lineno if fn is not None else self.node.lineno


def _resolve_kinds(classes: dict[str, list[_ClassInfo]]) -> dict[int, str]:
    """Map id(_ClassInfo) -> "operator" | "sink" by walking base-name
    chains to a root named ``Operator`` / ``SinkOp``."""
    kinds: dict[int, str] = {}

    def kind_of(info: _ClassInfo, seen: frozenset[str]) -> str | None:
        cached = kinds.get(id(info))
        if cached is not None:
            return cached
        for base in info.bases:
            if base == "Operator":
                kinds[id(info)] = "operator"
                return "operator"
            if base == "SinkOp":
                kinds[id(info)] = "sink"
                return "sink"
            if base in seen:
                continue
            for parent in classes.get(base, []):
                k = kind_of(parent, seen | {base})
                if k is not None:
                    kinds[id(info)] = k
                    return k
        return None

    for infos in classes.values():
        for info in infos:
            kind_of(info, frozenset({info.name}))
    return kinds


class OperatorContractAnalyzer(Analyzer):
    name = "operator-contract"
    description = "Operator/SinkOp subclasses declare a consistent contract"
    codes = {
        "OPC001": "apply() depends on ctx.total without stream_safe = False",
        "OPC002": "needs_prepass without stream_safe = False",
        "OPC003": "needs_prepass flag and prepass hooks disagree",
        "OPC004": "SinkOp subclass declares Operator-side hooks/geometry",
        "OPC005": "Operator subclass declares sink-side hooks",
        "OPC006": "malformed literal contract value",
        "OPC007": "SinkOp subclass missing init/consume/finalize",
        "PLN001": "partial override of the out_core/out_full/in_needed trio",
        "PLN002": "out_total and out_core disagree about the output grid",
        "PLN003": "literal decimate != 1 alongside a time-grid override",
        "PLN004": "literal non-zero halo alongside an in_needed override",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        classes: dict[str, list[_ClassInfo]] = {}
        for mod in project.modules:
            if mod.tree is None:
                continue
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, []).append(_ClassInfo(mod, node))
        kinds = _resolve_kinds(classes)
        for infos in classes.values():
            for info in infos:
                kind = kinds.get(id(info))
                view = _FlatView(info, classes)
                if kind == "operator":
                    yield from self._check_operator(info, view)
                elif kind == "sink":
                    yield from self._check_sink(info, view)

    # -- operator side ------------------------------------------------------
    def _check_operator(self, info: _ClassInfo, view: "_FlatView") -> Iterator[Finding]:
        mod, cls = info.mod, info.node
        stream_safe = view.attr("stream_safe")
        declared_unsafe = stream_safe is False
        needs_prepass = view.attr("needs_prepass")

        apply_fn = info.methods.get("apply")
        if apply_fn is not None and not declared_unsafe:
            for line in _ctx_total_reads(apply_fn):
                if mod.is_suppressed(line, "OPC001"):
                    continue
                yield self.finding(
                    "OPC001", mod, line,
                    f"{cls.name}.apply reads ctx.total but {cls.name} does "
                    f"not declare stream_safe = False",
                    hint="set stream_safe = False, or justify with "
                         "`# noqa: OPC001 - reason` if total is only a "
                         "right-edge clamp",
                )

        if needs_prepass is True and not declared_unsafe:
            if not mod.node_suppressed(cls, "OPC002"):
                yield self.finding(
                    "OPC002", mod,
                    info.class_attr_lines.get("needs_prepass", cls.lineno),
                    f"{cls.name} needs a pre-pass (whole-record read) but "
                    f"does not declare stream_safe = False",
                    hint="a pre-pass is by definition not stream-safe",
                )

        has_hooks = [h for h in _PREPASS_HOOKS if view.has_method(h)]
        local_hooks = [h for h in _PREPASS_HOOKS if h in info.methods]
        if needs_prepass is True and len(has_hooks) < len(_PREPASS_HOOKS):
            missing = [h for h in _PREPASS_HOOKS if not view.has_method(h)]
            yield self.finding(
                "OPC003", mod, cls.lineno,
                f"{cls.name} sets needs_prepass but does not override "
                f"{', '.join(missing)}",
            )
        elif local_hooks and needs_prepass is not True:
            yield self.finding(
                "OPC003", mod, info.methods[local_hooks[0]].lineno,
                f"{cls.name} overrides {', '.join(local_hooks)} but never "
                f"sets needs_prepass = True (the runner will not call them)",
            )

        for hook in _SINK_HOOKS:
            if hook in info.methods:
                yield self.finding(
                    "OPC005", mod, info.methods[hook].lineno,
                    f"{cls.name} is an Operator but overrides sink hook "
                    f"{hook!r} (did you mean to subclass SinkOp?)",
                )

        literals = info.literal_contract()
        yield from self._check_literals(info, literals)
        yield from self._check_geometry(info, view, literals)

    def _check_literals(
        self, info: _ClassInfo, literals: dict[str, tuple[object, int]]
    ) -> Iterator[Finding]:
        mod, cls = info.mod, info.node
        for attr, (value, line) in sorted(literals.items()):
            if value is _NOT_LITERAL:
                continue
            bad: str | None = None
            if attr == "halo":
                if not (
                    isinstance(value, tuple)
                    and len(value) == 2
                    and all(isinstance(v, int) and v >= 0 for v in value)
                ):
                    bad = f"halo must be a (left, right) pair of ints >= 0, got {value!r}"
            elif attr == "decimate":
                if not (isinstance(value, int) and value >= 1):
                    bad = f"decimate must be an int >= 1, got {value!r}"
            elif attr == "channel_halo":
                if not (isinstance(value, int) and value >= 0):
                    bad = f"channel_halo must be an int >= 0, got {value!r}"
            if bad is not None and not mod.is_suppressed(line, "OPC006"):
                yield self.finding("OPC006", mod, line, f"{cls.name}: {bad}")

    def _check_geometry(
        self, info: _ClassInfo, view: "_FlatView",
        literals: dict[str, tuple[object, int]],
    ) -> Iterator[Finding]:
        mod, cls = info.mod, info.node
        # _FlatView excludes the Operator root, so "has_method" means the
        # class (or a concrete ancestor) overrides the default algebra.
        trio = [m for m in _GRID_TRIO if view.has_method(m)]
        has_total = view.has_method("out_total")

        if trio and len(trio) < len(_GRID_TRIO):
            missing = [m for m in _GRID_TRIO if m not in trio]
            line = info.method_line(trio[0])
            if not mod.is_suppressed(line, "PLN001"):
                yield self.finding(
                    "PLN001", mod, line,
                    f"{cls.name} overrides {', '.join(trio)} but not "
                    f"{', '.join(missing)} — the trio defines one output "
                    f"grid and must move together",
                    hint="override out_core, out_full, and in_needed "
                         "(and out_total) together, or none of them",
                )

        full_trio = len(trio) == len(_GRID_TRIO)
        # Only when the trio itself is coherent (all or none) — a partial
        # trio is already PLN001 and would double-report here.
        if (not trio or full_trio) and has_total != full_trio and (
            trio or has_total
        ):
            which = "out_total" if has_total else "out_core/out_full/in_needed"
            other = "out_core/out_full/in_needed" if has_total else "out_total"
            line = info.method_line("out_total" if has_total else trio[0])
            if not mod.is_suppressed(line, "PLN002"):
                yield self.finding(
                    "PLN002", mod, line,
                    f"{cls.name} overrides {which} but not {other}: a "
                    f"custom output grid needs both its length and its "
                    f"ownership mapping",
                )

        if trio and "decimate" in literals:
            value, line = literals["decimate"]
            if (
                isinstance(value, int)
                and value != 1
                and not mod.is_suppressed(line, "PLN003")
            ):
                yield self.finding(
                    "PLN003", mod, line,
                    f"{cls.name} declares decimate = {value} and also "
                    f"overrides {', '.join(trio)}: the default algebra "
                    f"derives the grid from decimate, so the two "
                    f"declarations will disagree",
                    hint="keep decimate = 1 when the interval methods "
                         "define the grid",
                )
        if view.has_method("in_needed") and "halo" in literals:
            value, line = literals["halo"]
            nonzero = (
                isinstance(value, tuple)
                and len(value) == 2
                and any(isinstance(v, int) and v != 0 for v in value)
            )
            if nonzero and not mod.is_suppressed(line, "PLN004"):
                yield self.finding(
                    "PLN004", mod, line,
                    f"{cls.name} declares halo = {value} and also "
                    f"overrides in_needed — in_needed is the halo "
                    f"declaration, so the literal is redundant or "
                    f"contradicts it",
                    hint="fold the halo into in_needed and declare "
                         "halo = (0, 0), or drop the override",
                )

    # -- sink side ----------------------------------------------------------
    def _check_sink(self, info: _ClassInfo, view: "_FlatView") -> Iterator[Finding]:
        mod, cls = info.mod, info.node
        if "apply" in info.methods:
            yield self.finding(
                "OPC004", mod, info.methods["apply"].lineno,
                f"{cls.name} is a SinkOp but overrides 'apply' — sinks "
                f"consume chunks via init/consume/finalize",
            )
        for attr in _GEOMETRY_ATTRS:
            if attr in info.class_attrs:
                yield self.finding(
                    "OPC004", mod, info.class_attr_lines[attr],
                    f"{cls.name} is a SinkOp but declares Operator "
                    f"geometry {attr!r} (the runner ignores it on sinks)",
                )
        missing = [h for h in _SINK_HOOKS if not view.has_method(h)]
        if missing and not mod.node_suppressed(cls, "OPC007"):
            yield self.finding(
                "OPC007", mod, cls.lineno,
                f"{cls.name} must implement {', '.join(missing)}",
            )


class _FlatView:
    """A class flattened over its (name-resolved) ancestor chain, so a
    subclass of a concrete operator inherits contract declarations and
    hooks instead of being re-flagged for not redeclaring them.  The
    ``Operator``/``SinkOp`` roots are excluded — their hook stubs must
    not count as implementations."""

    def __init__(self, info: _ClassInfo, classes: dict[str, list[_ClassInfo]]):
        self._methods: set[str] = set()
        self._attrs: dict[str, object] = {}
        seen: set[str] = set()
        stack = [info]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            self._methods.update(current.methods)
            for attr, value in current.class_attrs.items():
                self._attrs.setdefault(attr, value)  # nearest definition wins
            for base in current.bases:
                if base in ("Operator", "SinkOp"):
                    continue
                stack.extend(classes.get(base, []))

    def has_method(self, name: str) -> bool:
        return name in self._methods

    def attr(self, name: str, default: object = _NOT_LITERAL) -> object:
        return self._attrs.get(name, default)


def _ctx_total_reads(apply_fn: ast.FunctionDef) -> Iterator[int]:
    args = apply_fn.args.args
    ctx_name = args[2].arg if len(args) >= 3 else "ctx"
    for node in ast.walk(apply_fn):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "total"
            and isinstance(node.value, ast.Name)
            and node.value.id == ctx_name
        ):
            yield node.lineno
