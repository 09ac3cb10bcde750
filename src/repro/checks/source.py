"""Parsed source modules and the project that holds them.

Every file is read and parsed exactly once; analyzers share the
:class:`SourceModule` (AST + comment map), so adding an analyzer costs
one more tree walk, not another parse.  Comments are extracted with
:mod:`tokenize` (so ``#`` inside string literals is never mistaken for
one) and drive three in-source conventions:

``# guarded-by: <lock-attr>``
    on an attribute assignment: the attribute may only be mutated while
    holding ``self.<lock-attr>`` (checked by the lock-discipline
    analyzer, :mod:`repro.checks.locks`).
``# holds-lock``
    on (or directly above) a ``def``: the method is documented to be
    called with the class lock already held, so mutations inside it are
    exempt.
``# noqa`` / ``# noqa: CODE[,CODE...] - reason``
    suppress findings on that line; a bare ``noqa`` suppresses every
    code, a marker with codes only the codes it lists (a flake8 code such
    as ``F401`` or ``E402`` silences none of ours).  The historical flake8
    ``BLE001`` marker is accepted as an alias for the broad-except code
    ``TAX001``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Project", "SourceModule", "GUARDED_BY_RE", "HOLDS_LOCK_RE"]

GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
HOLDS_LOCK_RE = re.compile(r"#\s*holds-lock\b")
_NOQA_RE = re.compile(r"#\s*noqa\b(?::?\s*(?P<codes>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?")

#: Legacy flake8-style markers accepted as aliases for our codes, so the
#: ``# noqa: BLE001 - reason`` boundaries written before the ``TAX`` codes
#: keep working unchanged.
NOQA_ALIASES = {"BLE001": "TAX001"}


@dataclass
class SourceModule:
    """One parsed source file plus its comment annotations."""

    path: Path
    rel: str  # repo-relative, forward slashes
    text: str
    tree: ast.Module | None
    parse_error: str | None = None
    #: line number -> full comment text (joined if multiple tokens)
    comments: dict[int, str] = field(default_factory=dict)
    #: scanned under the relaxed rule set (benchmarks/, examples/)
    relaxed: bool = False
    #: top-level package under src/repro ("hdf5lite", "rt", ...) or None
    layer: str | None = None

    def is_suppressed(self, line: int, code: str) -> bool:
        """True when a ``noqa`` on ``line`` silences ``code``."""
        match = _NOQA_RE.search(self.comments.get(line, ""))
        if match is None:
            return False
        codes = match.group("codes")
        if not codes:
            return True  # bare noqa: everything
        listed = {c.strip() for c in codes.split(",")}
        listed |= {NOQA_ALIASES.get(c, c) for c in listed}
        return code in listed

    def node_suppressed(self, node: ast.AST, code: str) -> bool:
        """Check ``noqa`` on the node's first and last physical lines."""
        lines = {getattr(node, "lineno", 0)}
        end = getattr(node, "end_lineno", None)
        if end is not None:
            lines.add(end)
        return any(self.is_suppressed(line, code) for line in lines)

    def context_line(self, line: int) -> str:
        """Whitespace-normalized source text of ``line`` — the stable
        anchor findings fingerprint on instead of the line number."""
        lines = self.text.splitlines()
        if 1 <= line <= len(lines):
            return " ".join(lines[line - 1].split())
        return ""

    def guarded_on(self, line: int) -> str | None:
        """The lock name from a ``# guarded-by:`` comment on ``line``."""
        match = GUARDED_BY_RE.search(self.comments.get(line, ""))
        return match.group(1) if match else None

    def holds_lock_on(self, line: int) -> bool:
        return bool(HOLDS_LOCK_RE.search(self.comments.get(line, "")))


def _extract_comments(text: str) -> dict[int, str]:
    comments: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                line = tok.start[0]
                comments[line] = (
                    comments[line] + "  " + tok.string if line in comments else tok.string
                )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Tokenisation failed (the parse will report it); fall back to a
        # naive scan so noqa markers still work on the healthy lines.
        for i, raw in enumerate(text.splitlines(), start=1):
            pos = raw.find("#")
            if pos >= 0:
                comments[i] = raw[pos:]
    return comments


def load_module(path: Path, rel: str, relaxed: bool = False) -> SourceModule:
    """Read + parse one file; a syntax error becomes ``parse_error``."""
    text = path.read_text(encoding="utf-8")
    tree: ast.Module | None = None
    parse_error: str | None = None
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        parse_error = f"{exc.msg} (line {exc.lineno})"
    layer = None
    parts = rel.split("/")
    if parts[:2] == ["src", "repro"] and len(parts) > 2:
        layer = parts[2][:-3] if len(parts) == 3 else parts[2]
    return SourceModule(
        path=path,
        rel=rel,
        text=text,
        tree=tree,
        parse_error=parse_error,
        comments=_extract_comments(text),
        relaxed=relaxed,
        layer=layer,
    )


@dataclass
class Project:
    """Everything one check run looks at."""

    root: Path
    modules: list[SourceModule]

    def module(self, rel: str) -> SourceModule | None:
        for mod in self.modules:
            if mod.rel == rel:
                return mod
        return None
