"""The check runner: walk the tree, parse once, run every analyzer.

Default scan roots are ``src/repro`` (strict) plus ``benchmarks`` and
``examples`` (relaxed rule set — scripts are exempt from the
builtin-raise and ``__all__``-required checks but still linted for
broad excepts, silent handlers, and stale exports).  A file that fails
to parse produces a ``PAR001`` finding rather than crashing the run.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Iterable

from repro.checks.findings import Finding
from repro.checks.registry import all_analyzers
from repro.checks.source import Project, SourceModule, load_module
from repro.errors import ConfigError

__all__ = ["DEFAULT_ROOTS", "RELAXED_ROOTS", "load_project", "run_analyzers"]

DEFAULT_ROOTS = ("src/repro", "benchmarks", "examples")
RELAXED_ROOTS = ("benchmarks", "examples")
_SKIP_DIR_SUFFIXES = (".egg-info",)
_SKIP_DIR_NAMES = {"__pycache__", ".git", "results"}


def _iter_py_files(root: Path) -> Iterable[Path]:
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        if any(
            p in _SKIP_DIR_NAMES or p.endswith(_SKIP_DIR_SUFFIXES)
            for p in parts[:-1]
        ):
            continue
        yield path


def load_project(root: str | Path, paths: Iterable[str | Path] | None = None) -> Project:
    """Build a :class:`Project` rooted at ``root``.

    With no ``paths``, the default roots that exist under ``root`` are
    scanned.  Explicit ``paths`` (files or directories) are scanned
    as given; those under a relaxed root keep the relaxed rule set.
    """
    root = Path(root).resolve()
    if paths:
        scan = [Path(p) if Path(p).is_absolute() else root / p for p in paths]
    else:
        scan = [root / r for r in DEFAULT_ROOTS if (root / r).exists()]
        if not scan:
            raise ConfigError(
                f"{root}: none of {', '.join(DEFAULT_ROOTS)} exist — "
                f"run from the repository root or pass explicit paths"
            )
    modules: list[SourceModule] = []
    seen: set[Path] = set()
    for entry in scan:
        if not entry.exists():
            raise ConfigError(f"no such path: {entry}")
        for path in _iter_py_files(entry):
            path = path.resolve()
            if path in seen:
                continue
            seen.add(path)
            try:
                rel = path.relative_to(root).as_posix()
            except ValueError:
                rel = path.as_posix()
            relaxed = any(
                rel == r or rel.startswith(r + "/") for r in RELAXED_ROOTS
            )
            modules.append(load_module(path, rel, relaxed=relaxed))
    modules.sort(key=lambda m: m.rel)
    return Project(root=root, modules=modules)


def run_analyzers(
    project: Project,
    only: Iterable[str] | None = None,
    timings: dict[str, float] | None = None,
) -> list[Finding]:
    """Run (a selection of) analyzers; returns stably-sorted findings.

    ``only`` filters by rule-family name (``exception-taxonomy``) or
    individual code (``TAX001``); parse failures always surface.  When a
    ``timings`` dict is passed, each analyzer's wall time in
    milliseconds is recorded under its family name.
    """
    wanted = {token.strip() for token in only} if only else None
    findings: list[Finding] = []
    for mod in project.modules:
        if mod.parse_error is not None:
            findings.append(Finding(
                code="PAR001", rule="parse", path=mod.rel, line=1,
                message=f"file does not parse: {mod.parse_error}",
            ))
    known: set[str] = {"parse", "PAR001"}
    for analyzer in all_analyzers():
        known.add(analyzer.name)
        known.update(analyzer.codes)
        if wanted is not None and not (
            analyzer.name in wanted or wanted & set(analyzer.codes)
        ):
            continue
        started = perf_counter()
        selected = list(analyzer.run(project))
        if timings is not None:
            timings[analyzer.name] = round(
                (perf_counter() - started) * 1000.0, 3
            )
        if wanted is not None and analyzer.name not in wanted:
            selected = [f for f in selected if f.code in wanted]
        findings.extend(selected)
    if wanted is not None:
        unknown = wanted - known
        if unknown:
            raise ConfigError(
                f"--only: unknown rule/code: {', '.join(sorted(unknown))}"
            )
    return sorted(findings, key=Finding.sort_key)
