"""Persisted baseline / allowlist for check findings.

Two suppression mechanisms live in one JSON file
(``scripts/checks_baseline.json``):

* **waivers** — hand-written policy entries matching a code (or a whole
  rule) against an fnmatch path pattern, each with a mandatory
  ``reason``.  This is where intentional deviations live (e.g. DasLib
  mirrors scipy's ``ValueError`` argument contract).
* **findings** — individual grandfathered findings pinned by
  line-independent fingerprint, written by ``--update-baseline``.  Each
  keeps a ``reason`` (new entries get an ``unreviewed`` placeholder the
  review is expected to replace) and the matching is by multiplicity:
  two identical findings need two entries.

A finding suppressed by either mechanism is *baselined*; anything else
is *new* and fails the run.  ``--update-baseline`` rewrites only the
``findings`` list (preserving reasons for fingerprints that survive)
and never touches the waivers.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

from repro.checks.findings import Finding
from repro.errors import ConfigError
from repro.utils.durable import publish

__all__ = ["Baseline", "Waiver", "UNREVIEWED"]

UNREVIEWED = "unreviewed — justify this entry or fix the finding"


@dataclass(frozen=True)
class Waiver:
    """A policy-level suppression: ``code`` (or every code of ``rule``)
    under paths matching ``path`` (fnmatch), with a reason."""

    path: str
    reason: str
    code: str | None = None
    rule: str | None = None

    def matches(self, finding: Finding) -> bool:
        if self.code is not None and finding.code != self.code:
            return False
        if self.rule is not None and finding.rule != self.rule:
            return False
        return fnmatch(finding.path, self.path)


@dataclass
class Baseline:
    waivers: list[Waiver] = field(default_factory=list)
    #: fingerprint -> how many identical findings are grandfathered
    pinned: Counter = field(default_factory=Counter)
    #: fingerprint -> (reason, representative entry dict) for round-trips
    pinned_meta: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path | None) -> "Baseline":
        if path is None or not Path(path).exists():
            return cls()
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if raw.get("version") != 1:
            raise ConfigError(f"{path}: unsupported baseline version {raw.get('version')!r}")
        waivers = [
            Waiver(
                path=entry["path"],
                reason=entry["reason"],
                code=entry.get("code"),
                rule=entry.get("rule"),
            )
            for entry in raw.get("waivers", [])
        ]
        pinned: Counter = Counter()
        meta: dict[str, dict] = {}
        for entry in raw.get("findings", []):
            fp = entry["fingerprint"]
            pinned[fp] += 1
            meta.setdefault(fp, entry)
        return cls(waivers=waivers, pinned=pinned, pinned_meta=meta)

    def split(self, findings: list[Finding]) -> tuple[list[Finding], list[Finding]]:
        """Partition into (new, baselined); pinned entries are consumed
        with multiplicity so extra duplicates still surface."""
        budget = Counter(self.pinned)
        new: list[Finding] = []
        baselined: list[Finding] = []
        for finding in findings:
            if any(w.matches(finding) for w in self.waivers):
                baselined.append(finding)
            elif budget[finding.fingerprint] > 0:
                budget[finding.fingerprint] -= 1
                baselined.append(finding)
            else:
                new.append(finding)
        return new, baselined

    def updated_document(self, findings: list[Finding]) -> dict:
        """The JSON document pinning the current (non-waived) findings,
        preserving waivers and any reasons already on file."""
        entries = []
        for finding in sorted(findings, key=Finding.sort_key):
            if any(w.matches(finding) for w in self.waivers):
                continue
            previous = self.pinned_meta.get(finding.fingerprint, {})
            entries.append({
                "fingerprint": finding.fingerprint,
                "code": finding.code,
                "path": finding.path,
                "line": finding.line,
                "message": finding.message,
                "context": finding.context,
                "reason": previous.get("reason", UNREVIEWED),
            })
        waivers = []
        for w in self.waivers:
            entry = {"path": w.path, "reason": w.reason}
            if w.code is not None:
                entry["code"] = w.code
            if w.rule is not None:
                entry["rule"] = w.rule
            waivers.append(entry)
        return {"version": 1, "waivers": waivers, "findings": entries}

    def save(self, path: str | Path, findings: list[Finding]) -> None:
        doc = self.updated_document(findings)
        publish(path, (json.dumps(doc, indent=2) + "\n").encode())
