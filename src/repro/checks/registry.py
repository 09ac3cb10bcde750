"""Plugin-style analyzer registry.

An analyzer subclasses :class:`Analyzer`, declares a ``name`` (its rule
family), a ``codes`` table, and implements :meth:`Analyzer.run` over a
:class:`~repro.checks.source.Project`.  Decorating it with
:func:`register` makes it discoverable; :func:`all_analyzers` imports
the built-in analyzer modules (each registers itself on import) and
returns one instance of everything registered — external code can
register more before calling the runner.
"""

from __future__ import annotations

from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.source import Project
from repro.errors import ConfigError

__all__ = ["Analyzer", "register", "all_analyzers"]

_REGISTRY: dict[str, type["Analyzer"]] = {}


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


def register(cls: type[Analyzer]) -> type[Analyzer]:
    """Class decorator adding an analyzer to the registry."""
    if not cls.name:
        raise ConfigError(f"analyzer {cls.__name__} must set a name")
    _REGISTRY[cls.name] = cls
    return cls


def all_analyzers() -> list[Analyzer]:
    """One instance of every registered analyzer (built-ins included)."""
    # Importing the built-in analyzer modules triggers their @register.
    from repro.checks import (  # noqa - imported for side effect
        api, atm, bls, ccm, contracts, locks, pln, res, taxonomy,
    )

    _ = (api, atm, bls, ccm, contracts, locks, pln, res, taxonomy)
    return [cls() for _, cls in sorted(_REGISTRY.items())]
