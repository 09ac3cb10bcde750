"""The analyzer base class and the fixed table of analyzers.

An analyzer subclasses :class:`Analyzer`, declares a ``name`` (its rule
family), a ``codes`` table, and implements :meth:`Analyzer.run` over a
:class:`~repro.checks.source.Project`.  :func:`all_analyzers` returns one
instance of each built-in analyzer, in name order.
"""

from __future__ import annotations

from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.source import Project
from repro.errors import ConfigError

__all__ = ["Analyzer", "all_analyzers"]


class Analyzer:
    """Base class: one rule family (possibly several codes)."""

    #: rule-family id, e.g. ``"lock-discipline"`` (what ``--only`` matches)
    name: str = ""
    #: short human description
    description: str = ""
    #: code -> one-line description of the specific check
    codes: dict[str, str] = {}

    def run(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, code: str, mod, line: int, message: str, hint: str = "",
                severity: str = "error") -> Finding:
        if code not in self.codes:
            raise ConfigError(f"{self.name}: unknown code {code!r}")
        return Finding(
            code=code, rule=self.name, path=mod.rel, line=line,
            message=message, hint=hint, severity=severity,
            context=mod.context_line(line),
        )


def all_analyzers() -> list[Analyzer]:
    """One instance of every analyzer, in name order."""
    # Imported here: each analyzer module imports Analyzer from this one.
    from repro.checks.bls import BlasCallAnalyzer
    from repro.checks.locks import LockDisciplineAnalyzer
    from repro.checks.res import ResourceLifecycleAnalyzer
    from repro.checks.taxonomy import ExceptionTaxonomyAnalyzer

    return [cls() for cls in (
        BlasCallAnalyzer,             # blas-call
        ExceptionTaxonomyAnalyzer,    # exception-taxonomy
        LockDisciplineAnalyzer,       # lock-discipline
        ResourceLifecycleAnalyzer,    # resource-lifecycle
    )]
