"""BLAS-call analyzer (``BLS``).

The analysis path — ``daslib`` kernels, the ``core`` executor and its
operators, the ``rt`` and ``serve`` services — runs on the executor's
worker pool (:func:`repro.core.pipeline.run_chunks`), which already owns
the cores.  A BLAS-backed product called from there hands the work to
OpenBLAS's own threads: a level-1/2 call (a 90 000-element dot, a
``(channels, n) @ (n,)`` slope) then waits scheduler ticks for a
hand-off that takes longer than the arithmetic — 4–12 ms for what an
``einsum`` does in 0.05 ms — and a large GEMM wakes workers that take
the executor's cores.  The fix is always at the call site: an
``einsum`` (numpy's own loops) for reductions, a strip-mined product
below OpenBLAS's threading threshold where a real GEMM earns its keep
(``daslib/resample.py``, the family's one reasoned waiver).

``BLS001``
    a BLAS-backed product under ``src/repro/{daslib,core,rt,serve}``:
    the ``@`` operator (``@=`` too) or a call to ``np.dot``,
    ``np.matmul``, ``np.inner``, ``np.vdot`` or ``np.tensordot``.  The
    check is syntactic — it cannot see dtypes, so an integer product
    (which never reaches BLAS) is written as an ``einsum`` as well, or
    carries ``# noqa: BLS001 - reason``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.registry import Analyzer
from repro.checks.source import Project

__all__ = ["BlasCallAnalyzer", "ANALYSIS_LAYERS", "BLAS_FUNCTIONS"]

#: Layers whose code runs on the executor's worker pool.
ANALYSIS_LAYERS = frozenset({"daslib", "core", "rt", "serve"})
#: ``numpy`` functions that dispatch to BLAS for floating-point operands.
BLAS_FUNCTIONS = frozenset({"dot", "matmul", "inner", "vdot", "tensordot"})

_NUMPY_NAMES = frozenset({"np", "numpy"})
_HINT = (
    "write the reduction as np.einsum (numpy's own loops), or strip-mine "
    "a real GEMM and annotate `# noqa: BLS001 - reason`"
)


def _blas_product(node: ast.AST) -> str | None:
    """How ``node`` spells a BLAS-backed product, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
        node.op, ast.MatMult
    ):
        return "the @ operator"
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in BLAS_FUNCTIONS
            and isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_NAMES
        ):
            return f"np.{func.attr}"
    return None


class BlasCallAnalyzer(Analyzer):
    name = "blas-call"
    description = "no BLAS-backed product on the analysis path"
    codes = {
        "BLS001": (
            "BLAS-backed product (@, np.dot, np.matmul, ...) on the analysis path"
        ),
    }

    def run(self, project: Project) -> Iterator[Finding]:
        for mod in project.modules:
            if mod.tree is None or mod.layer not in ANALYSIS_LAYERS:
                continue
            for node in ast.walk(mod.tree):
                spelled = _blas_product(node)
                if spelled is None or mod.node_suppressed(node, "BLS001"):
                    continue
                yield self.finding(
                    "BLS001", mod, node.lineno,
                    f"{spelled} calls BLAS from the executor's worker pool",
                    hint=_HINT,
                )
