"""Atomic-persistence analyzer (``ATM``).

Durable state in this repo — checkpoints, supervisor health files,
event logs, quarantine manifests — must survive a kill at any instruction.
The blessed discipline is the one ``repro.utils.durable.publish``
implements — and every sidecar in the package is written through it:
write to a ``*.tmp`` sibling, ``flush()`` + ``os.fsync()`` the handle,
then publish with ``os.replace()`` (atomic on POSIX).  Anything less has
a window where a crash leaves a torn or empty file where good state used
to be.

The analyzer looks at every ``open`` for writing or appending in strict
(non-relaxed) modules.  A binary write straight onto its path is bulk
array data, which goes through the checksummed hdf5lite writer layer,
so ATM001 is for text-mode opens only; a tmp-staged or appending open
is durable state in either mode:

``ATM001``
    a bare ``open(path, "w")`` (or ``Path.write_text``) straight onto
    the final path.  A crash mid-write leaves a truncated file *and*
    has already destroyed the previous good copy.
``ATM002``
    the tmp-staging shape is present (the path expression looks
    temporary, or an ``os.replace`` is CFG-reachable after the write)
    but ``os.fsync`` is missing before publish: ``os.replace`` is
    atomic for the *name*, not the *bytes* — after a power cut the new
    name can point at unwritten data.
``ATM003``
    an append (``open(path, "a")``) with no ``flush`` + ``os.fsync``
    reachable afterwards: the tail rows a reader was told about can
    evaporate in a crash.

Reachability is CFG-based within the writing function (normal + back
edges from the ``open`` site), so the discipline must be visible where
the write happens — as it is in ``repro.utils.durable.publish`` and
``append_lines``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.checks.cfg import CFG, build_cfg, node_calls
from repro.checks.findings import Finding
from repro.checks.registry import Analyzer
from repro.checks.source import Project, SourceModule

__all__ = ["AtomicPersistenceAnalyzer", "TMPISH_RE"]

#: Path expressions that read as a staging location.
TMPISH_RE = re.compile(r"(tmp|temp|staging)", re.IGNORECASE)

_FLOW = frozenset({"normal", "back"})


def _open_mode(call: ast.Call) -> str | None:
    """The constant mode string of a builtin ``open`` call, else None."""
    func = call.func
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return None
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _is_os_call(call: ast.Call, name: str) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == name
        and isinstance(func.value, ast.Name)
        and func.value.id == "os"
    )


def _is_flush(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Attribute) and call.func.attr == "flush"


def _path_text(call: ast.Call) -> str:
    """Source text of the path argument, for the tmp-ish heuristic."""
    target: ast.expr | None = call.args[0] if call.args else None
    for kw in call.keywords:
        if kw.arg == "file":
            target = kw.value
    if isinstance(call.func, ast.Attribute):
        # path.write_text(...): the receiver is the path expression
        target = call.func.value
    if target is None:
        return ""
    try:
        return ast.unparse(target)
    except (ValueError, AttributeError):  # pragma: no cover
        return ""


class _WriteSite:
    __slots__ = ("call", "mode", "tmpish", "uid")

    def __init__(self, call: ast.Call, mode: str, tmpish: bool, uid: int):
        self.call = call
        self.mode = mode
        self.tmpish = tmpish
        self.uid = uid


class AtomicPersistenceAnalyzer(Analyzer):
    name = "atomic-persistence"
    description = "durable writes follow tmp + fsync + os.replace"
    codes = {
        "ATM001": "bare write to a durable path (no tmp staging)",
        "ATM002": "tmp-staged write published without fsync",
        "ATM003": "append to durable log without flush + fsync",
    }

    def run(self, project: Project) -> Iterator[Finding]:
        for mod in project.modules:
            if mod.tree is None or mod.relaxed:
                continue
            for node in ast.walk(mod.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(mod, node)

    def _check_function(
        self, mod: SourceModule, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        cfg = build_cfg(func)
        sites: list[_WriteSite] = []
        write_text_sites: list[tuple[ast.Call, int]] = []
        for node in cfg.stmt_nodes():
            if node.stmt is None:
                continue
            for call in node_calls(node.stmt):
                mode = _open_mode(call)
                if mode is not None and ("w" in mode or "a" in mode):
                    sites.append(_WriteSite(
                        call, mode, bool(TMPISH_RE.search(_path_text(call))),
                        node.uid,
                    ))
                elif (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "write_text"
                ):
                    write_text_sites.append((call, node.uid))
        if not sites and not write_text_sites:
            return

        def reachable_calls(uid: int) -> list[ast.Call]:
            out: list[ast.Call] = []
            for later in cfg.reachable_from(uid, kinds=_FLOW):
                node = cfg.nodes[later]
                if node.kind == "stmt" and node.stmt is not None:
                    out.extend(node_calls(node.stmt))
            return out

        for call, uid in write_text_sites:
            if mod.node_suppressed(call, "ATM001"):
                continue
            if TMPISH_RE.search(_path_text(call)):
                continue
            yield self.finding(
                "ATM001", mod, call.lineno,
                f"{func.name}: write_text publishes directly onto the "
                f"final path — a crash mid-write tears the file after the "
                f"old copy is gone",
                hint="publish through repro.utils.durable.publish (a "
                     ".tmp sibling, fsync, then os.replace)",
            )

        for site in sites:
            later = reachable_calls(site.uid)
            has_replace = any(_is_os_call(c, "replace") for c in later)
            has_fsync = any(_is_os_call(c, "fsync") for c in later)
            has_flush = any(_is_flush(c) for c in later)
            if "a" in site.mode:
                if has_flush and has_fsync:
                    continue
                if mod.node_suppressed(site.call, "ATM003"):
                    continue
                yield self.finding(
                    "ATM003", mod, site.call.lineno,
                    f"{func.name}: append to a durable log without "
                    f"flush + os.fsync — acknowledged rows can vanish in "
                    f"a crash",
                    hint="handle.flush(); os.fsync(handle.fileno()) before "
                         "the write is acknowledged",
                )
                continue
            staged = site.tmpish or has_replace
            if not staged:
                if "b" in site.mode or mod.node_suppressed(site.call, "ATM001"):
                    continue
                yield self.finding(
                    "ATM001", mod, site.call.lineno,
                    f"{func.name}: bare open(..., \"w\") onto the final "
                    f"path — a crash mid-write destroys the previous good "
                    f"copy and leaves a torn file",
                    hint="publish through repro.utils.durable.publish (a "
                         ".tmp sibling, fsync, then os.replace)",
                )
                continue
            if not (has_fsync and has_replace):
                if mod.node_suppressed(site.call, "ATM002"):
                    continue
                missing = "os.fsync" if has_replace else "os.replace"
                yield self.finding(
                    "ATM002", mod, site.call.lineno,
                    f"{func.name}: tmp-staged write is missing {missing} — "
                    f"os.replace is atomic for the name, not the bytes; "
                    f"without fsync the new name can point at unwritten "
                    f"data after power loss",
                    hint="publish through repro.utils.durable.publish, "
                         "which fsyncs the tmp sibling before os.replace",
                )
