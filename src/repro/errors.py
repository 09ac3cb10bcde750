"""Exception hierarchy for the repro (DASSA) package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch framework-level failures without masking programming errors;
:func:`run_cli` is where every command-line tool turns one into its exit
status.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

__all__ = [
    "ReproError",
    "FormatError",
    "SelectionError",
    "StorageError",
    "CorruptDataError",
    "DegradedReadError",
    "MPIError",
    "OutOfMemoryError",
    "UDFError",
    "ConfigError",
    "ServeError",
    "QuotaExceededError",
    "AdmissionQueueFullError",
    "CheckpointCorruptError",
    "InjectedFaultError",
    "run_cli",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class FormatError(ReproError):
    """Raised when an hdf5lite file is malformed or unsupported."""


class SelectionError(ReproError):
    """Raised for invalid hyperslab selections."""


class StorageError(ReproError):
    """Raised by the DASS storage engine (search, VCA/RCA, readers)."""


class CorruptDataError(StorageError):
    """Raised when stored bytes fail an integrity check (CRC32 mismatch,
    impossible extents) — the data on disk is not what was written.

    Carries structured context so degraded-read layers and quarantine
    records can reason about the failure instead of string-matching:
    ``path`` the file holding the bad bytes, ``offset`` the byte offset of
    the failing block (``None`` when unknown), ``reason`` a short
    machine-friendly cause (e.g. ``"crc32 mismatch"``).
    """

    def __init__(self, path: str, offset: "int | None" = None, reason: str = "corrupt data"):
        self.path = str(path)
        self.offset = offset
        self.reason = reason
        at = f" at offset {offset}" if offset is not None else ""
        super().__init__(f"{self.path}: {reason}{at}")


class DegradedReadError(StorageError):
    """Raised when a read could not be satisfied from a source and the
    caller's error policy says to surface (rather than mask) the loss.

    Same structured fields as :class:`CorruptDataError`: ``path`` names
    the failing source, ``offset`` the sample/byte position when known,
    ``reason`` the short cause (``"truncated"``, ``"vanished"``,
    ``"unreadable"``, ...).
    """

    def __init__(self, path: str, offset: "int | None" = None, reason: str = "unreadable"):
        self.path = str(path)
        self.offset = offset
        self.reason = reason
        at = f" at offset {offset}" if offset is not None else ""
        super().__init__(f"{self.path}: degraded read ({reason}){at}")


class CheckpointCorruptError(StorageError):
    """Raised (or recorded) when a checkpoint file fails to parse or its
    payload checksum does not match — a torn write or on-disk corruption.

    ``path`` names the failing checkpoint file, ``reason`` the short
    cause (``"torn json"``, ``"crc mismatch"``, ``"bad version"``).  A
    :class:`~repro.rt.checkpoint.CheckpointStore` with a valid previous
    generation *records* this error and falls back; it raises only when
    no valid generation remains.
    """

    def __init__(self, path: str, reason: str = "corrupt checkpoint"):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")


class InjectedFaultError(ReproError):
    """Raised by the chaos harness to simulate a process crash at a
    seeded point (kill-at-Nth-file and friends).  Deliberately a direct
    :class:`ReproError` subclass so supervision code can recognise an
    injected death without confusing it with real storage loss."""


class MPIError(ReproError):
    """Raised by the simulated MPI runtime."""


class OutOfMemoryError(ReproError):
    """Raised by the cluster memory model when a node's memory is exceeded.

    Mirrors the pure-MPI ArrayUDF out-of-memory failure reported in the
    paper's Fig. 8 (91-node case).
    """

    def __init__(self, node: int, requested: float, available: float):
        self.node = node
        self.requested = requested
        self.available = available
        super().__init__(
            f"node {node}: requested {requested / 2**30:.2f} GiB "
            f"but only {available / 2**30:.2f} GiB available"
        )


class UDFError(ReproError):
    """Raised when a user-defined function fails inside the ArrayUDF engine."""


class ServeError(ReproError):
    """Raised by the read-serving layer (:mod:`repro.serve`) for request
    failures that are not storage corruption: bad window geometry against
    an archive, a missing pyramid level, or an admission decision."""


class QuotaExceededError(ServeError):
    """Raised when a tenant's token-bucket quota cannot admit a request
    (and the caller asked not to wait, or the wait timed out).

    ``tenant`` names the quota bucket, ``kind`` which budget ran out
    (``"requests"`` or ``"bytes"``), ``retry_after`` the seconds until
    the bucket could admit the request — clients are expected to back
    off by at least that much.
    """

    def __init__(self, tenant: str, kind: str = "requests", retry_after: float = 0.0):
        self.tenant = str(tenant)
        self.kind = kind
        self.retry_after = float(retry_after)
        super().__init__(
            f"tenant {self.tenant!r}: {kind} quota exceeded "
            f"(retry after {self.retry_after:.3f}s)"
        )


class AdmissionQueueFullError(ServeError):
    """Raised when a request cannot even *wait*: the tenant's bounded
    admission queue is already at capacity.  Distinct from
    :class:`QuotaExceededError` so load shedding (drop now, no backoff
    hint) and pacing (retry after) stay separable failure modes.

    ``tenant`` names the queue, ``depth`` its configured bound.
    """

    def __init__(self, tenant: str, depth: int):
        self.tenant = str(tenant)
        self.depth = int(depth)
        super().__init__(
            f"tenant {self.tenant!r}: admission queue full ({self.depth} waiting)"
        )


class ConfigError(ReproError, ValueError):
    """Raised for invalid framework / machine-model configuration or
    arguments.

    Subclasses :class:`ValueError` so call sites converted from
    ``raise ValueError`` keep their contract: callers (and tests)
    catching ``ValueError`` continue to work, while new code can catch
    the taxonomy root instead.
    """


def run_cli(prog: str, body: Callable[..., int], *args: Any) -> int:
    """``body(*args)``'s exit status; a :class:`ReproError` or an
    :class:`OSError` (a missing file, too many open files) it raises is
    instead one ``prog: error: …`` line on stderr — argparse's format for
    a usage error — and status 2.  The one error boundary of every
    command-line tool."""
    try:
        return body(*args)
    except (ReproError, OSError) as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return 2
