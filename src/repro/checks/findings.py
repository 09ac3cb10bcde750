"""The findings model: one rule violation at one source location.

A :class:`Finding` is the unit every analyzer produces and every
reporting surface consumes (text output, ``--json``, the baseline).
Findings order by ``(path, line, code, message)`` so output is stable
across runs and machines, and each carries a line-independent
``fingerprint`` so a baseline entry survives unrelated edits above it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = ["Finding", "SEVERITIES"]

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    ``rule`` is the analyzer family (e.g. ``lock-discipline``), ``code``
    the specific check (e.g. ``LCK001``).  ``path`` is repo-relative
    with forward slashes.  ``hint`` says how to fix or suppress.
    """

    code: str
    rule: str
    path: str
    line: int
    message: str
    hint: str = ""
    severity: str = field(default="error")
    #: normalized source text of the flagged line — the line-drift-stable
    #: anchor the fingerprint hashes instead of the line number
    context: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigError(f"severity must be one of {SEVERITIES}")

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching: hashes (code, path,
        message, normalized source context) — never the line number — so
        entries survive unrelated edits above the flagged line."""
        raw = f"{self.code}|{self.path}|{self.message}|{self.context}"
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:12]

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.code, self.message)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
            "context": self.context,
            "fingerprint": self.fingerprint,
        }

    def format(self) -> str:
        text = f"{self.path}:{self.line}: {self.code} {self.message}"
        if self.hint:
            text += f"  [{self.hint}]"
        return text
