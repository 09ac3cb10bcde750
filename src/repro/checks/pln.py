"""Planner-geometry analyzer (``PLN``).

The query planner (:mod:`repro.core.optimizer`) composes each
operator's declared interval algebra — ``out_total`` / ``out_core`` /
``out_full`` / ``in_needed`` — to decide what to read, what each
operator is handed, and what each chunk owns.  A declaration that is internally inconsistent
produces plans that read too little or trim the wrong samples.  The
kernel refuses such a plan before its first read, but only on the one
chunking a run uses (:func:`repro.core.pipeline.run_chunks`), and
:func:`repro.core.graph.verify_geometry` — the exhaustive sweep the test
suite runs over every shipped operator — only on the operators it is
handed.  These checks are the static half of that pair: they flag
declaration *shapes* that cannot be consistent, at review time.

Checks (on :class:`~repro.core.pipeline.Operator` subclasses, resolved
by name across the project like the ``OPC`` series):

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

from repro.checks.contracts import _ClassInfo, _FlatView, _resolve_kinds
from repro.checks.findings import Finding
from repro.checks.registry import Analyzer, register
from repro.checks.source import Project

__all__ = ["PlannerGeometryAnalyzer"]

_GRID_TRIO = ("out_core", "out_full", "in_needed")


@register
class PlannerGeometryAnalyzer(Analyzer):
    name = "planner-geometry"
    description = "Operator interval declarations compose consistently"
    codes = {
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
                if kinds.get(id(info)) != "operator":
                    continue
                yield from self._check(info, _FlatView(info, classes))

    def _check(self, info: _ClassInfo, view: _FlatView) -> Iterator[Finding]:
        mod, cls = info.mod, info.node
        # _FlatView excludes the Operator root, so "has_method" means the
        # class (or a concrete ancestor) overrides the default algebra.
        trio = [m for m in _GRID_TRIO if view.has_method(m)]
        has_total = view.has_method("out_total")

        if trio and len(trio) < len(_GRID_TRIO):
            missing = [m for m in _GRID_TRIO if m not in trio]
            line = self._method_line(info, trio[0])
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
            line = self._method_line(
                info, "out_total" if has_total else trio[0]
            )
            if not mod.is_suppressed(line, "PLN002"):
                yield self.finding(
                    "PLN002", mod, line,
                    f"{cls.name} overrides {which} but not {other}: a "
                    f"custom output grid needs both its length and its "
                    f"ownership mapping",
                )

        literals = self._literal_attrs(info)
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

    @staticmethod
    def _method_line(info: _ClassInfo, method: str) -> int:
        fn = info.methods.get(method)
        return fn.lineno if fn is not None else info.node.lineno

    @staticmethod
    def _literal_attrs(info: _ClassInfo) -> dict[str, tuple[object, int]]:
        out: dict[str, tuple[object, int]] = {}
        for attr in ("decimate", "halo"):
            if attr in info.class_attrs:
                out[attr] = (
                    info.class_attrs[attr], info.class_attr_lines[attr]
                )
        for attr, pair in info.init_literal_attrs().items():
            if attr in ("decimate", "halo"):
                out[attr] = pair
        return out
