"""Crash-consistent JSON checkpoints for kill-and-resume.

A checkpoint is one JSON document: the list of fully-processed files
(with their sample counts), the seam scheduler's carried state (tail
digest + watermarks — the raw tail samples are *not* serialised, they
are re-read from the durable acquisition files on resume), the open
event run, and the queue position.  Writes go through a temp file and
``os.replace`` so a kill mid-write leaves the previous checkpoint
intact, never a torn one.

Two defences make a *corrupted* checkpoint recoverable rather than
fatal:

* every document carries a CRC32 of its canonical payload, so a torn
  or bit-flipped file is *detected* (truncation breaks the JSON, a
  parseable mutation breaks the CRC) — never silently resumed from;
* :meth:`CheckpointStore.save` keeps the previous generation as
  ``<path>.prev`` before promoting the new one, so detection has
  somewhere to fall back to.  The fallback is reported through
  :attr:`CheckpointStore.last_error` (a typed
  :class:`~repro.errors.CheckpointCorruptError`); only when *no*
  generation verifies does :meth:`load` raise.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from repro.errors import CheckpointCorruptError, ReproError, StorageError
from repro.faults.policy import retry_call
from repro.storage.dasfile import DASFile
from repro.storage.gaps import GapMap

CHECKPOINT_VERSION = 1
CHECKPOINT_NAME = ".das_rt_checkpoint.json"
PREVIOUS_SUFFIX = ".prev"


def _canonical(document: dict) -> bytes:
    """The canonical (sorted-key, crc-free) JSON encoding the CRC covers."""
    body = {k: v for k, v in document.items() if k != "crc"}
    return json.dumps(body, sort_keys=True).encode("utf-8")


class CheckpointStore:
    """Load/save/clear one double-generation atomic checkpoint file."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self.previous_path = self.path + PREVIOUS_SUFFIX
        #: Typed error recorded when :meth:`load` had to skip a corrupt
        #: generation (``None`` after a clean load).
        self.last_error: CheckpointCorruptError | None = None
        #: Which generation the last :meth:`load` returned:
        #: ``"primary"``, ``"previous"``, or ``None``.
        self.loaded_from: str | None = None

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(self, payload: dict) -> None:
        """Atomically persist ``payload`` (version + CRC stamped here),
        demoting the current checkpoint to the ``.prev`` generation.

        A kill at any point leaves at least one verifiable generation on
        disk: the temp file is fsynced before any rename, and the demote
        happens before the promote — a crash between the two renames
        loses only the *newest* state, never both.
        """
        # Encoded once: the canonical body the CRC covers is the body
        # written, with the ``crc`` member appended inside its brace.
        body = _canonical({"version": CHECKPOINT_VERSION, **payload})
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(body[:-1] + b', "crc": %d}' % zlib.crc32(body))
            handle.flush()
            os.fsync(handle.fileno())
        if os.path.exists(self.path):
            os.replace(self.path, self.previous_path)
        os.replace(tmp, self.path)

    def _read_document(self, path: str) -> dict:
        """Parse + verify one generation; raises the typed error."""
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointCorruptError(path, f"torn json: {exc}")
        if not isinstance(document, dict):
            raise CheckpointCorruptError(path, "not a json object")
        if document.get("version") != CHECKPOINT_VERSION:
            raise CheckpointCorruptError(
                path, f"version {document.get('version')!r} unsupported"
            )
        # Documents written before the CRC existed load unverified.
        if "crc" in document and document["crc"] != zlib.crc32(
            _canonical(document)
        ):
            raise CheckpointCorruptError(path, "crc mismatch")
        return document

    def load(self) -> dict | None:
        """The newest *verifiable* checkpoint, or ``None`` when none was
        ever taken.

        A corrupt primary falls back to the ``.prev`` generation with
        the typed failure kept in :attr:`last_error` — resuming from the
        previous checkpoint replays work, which the event sink's dedup
        absorbs; resuming from a *wrong* checkpoint would corrupt the
        catalog, which is why an unverifiable generation is never used.
        Raises :class:`~repro.errors.CheckpointCorruptError` only when a
        checkpoint exists but no generation verifies.
        """
        self.last_error = None
        self.loaded_from = None
        primary_error: CheckpointCorruptError | None = None
        if os.path.exists(self.path):
            try:
                document = self._read_document(self.path)
                self.loaded_from = "primary"
                return document
            except CheckpointCorruptError as exc:
                primary_error = exc
        if os.path.exists(self.previous_path):
            document = self._read_document(self.previous_path)  # may raise
            self.last_error = (
                primary_error
                if primary_error is not None
                else CheckpointCorruptError(
                    self.path, "primary checkpoint missing (torn promote)"
                )
            )
            self.loaded_from = "previous"
            return document
        if primary_error is not None:
            raise primary_error
        return None

    def clear(self) -> None:
        for path in (self.path, self.previous_path):
            if os.path.exists(path):
                os.remove(path)


def read_sample_range(
    files: list[tuple[str, int]],
    lo: int,
    hi: int,
    on_error: str = "raise",
    fill_value: float = float("nan"),
    gaps: GapMap | None = None,
    retries: int = 1,
    backoff: float = 0.0,
) -> np.ndarray:
    """Re-read raw samples ``[lo, hi)`` of the concatenated record.

    ``files`` lists ``(path, n_samples)`` in record order — the
    checkpoint's ``files_done``.  Only the overlapping slice of each
    file is read (partial reads through :class:`DASFile`), which is how a
    resume rebuilds the carried tail without re-reading whole files.

    Each file read is retried up to ``retries`` times (exponential
    ``backoff``) — the same degraded-read semantics as the parallel VCA
    readers.  With ``on_error="mask"``, a file that stays unreadable
    (corrupted, truncated, vanished) contributes a ``fill_value`` span
    recorded in ``gaps`` instead of killing the whole range read; with
    the default ``"raise"`` the typed error propagates.  At least one
    file must be readable in mask mode — the channel count comes from a
    real block.
    """
    if lo < 0 or hi < lo:
        raise StorageError(f"bad sample range [{lo}, {hi})")
    if on_error not in ("raise", "mask"):
        raise StorageError(f"on_error must be 'raise' or 'mask', got {on_error!r}")
    # (absolute_lo, width, array-or-None, path, reason)
    pieces: list[tuple[int, int, np.ndarray | None, str, str | None]] = []
    offset = 0
    for path, n_samples in files:
        n_samples = int(n_samples)
        file_lo, file_hi = offset, offset + n_samples
        offset = file_hi
        if file_hi <= lo or file_lo >= hi:
            continue
        a = max(lo, file_lo) - file_lo
        b = min(hi, file_hi) - file_lo

        def read_slice() -> np.ndarray:
            with DASFile(path) as handle:
                return np.asarray(handle.data[:, a:b], dtype=np.float64)

        try:
            block = retry_call(
                read_slice,
                retries=retries,
                backoff=backoff,
                retry_on=(ReproError, OSError, KeyError),
            )
            pieces.append((file_lo + a, b - a, block, path, None))
        except (ReproError, OSError, KeyError) as exc:
            if on_error == "raise":
                raise
            reason = f"{type(exc).__name__}: {exc}"
            pieces.append((file_lo + a, b - a, None, path, reason))
    if offset < hi:
        raise StorageError(
            f"checkpointed files cover {offset} samples but the carried "
            f"tail needs [{lo}, {hi})"
        )
    real = [block for _, _, block, _, _ in pieces if block is not None]
    if not real:
        if any(block is None for _, _, block, _, _ in pieces):
            raise StorageError(
                f"every file covering [{lo}, {hi}) is unreadable; cannot "
                "even determine the channel count"
            )
        n_channels = 0
        if files:
            with DASFile(files[0][0]) as handle:
                n_channels = handle.data.shape[0]
        return np.zeros((n_channels, 0))
    n_channels = real[0].shape[0]
    out: list[np.ndarray] = []
    for abs_lo, width, block, path, reason in pieces:
        if block is None:
            block = np.full((n_channels, width), fill_value)
            if gaps is not None:
                gaps.record(
                    path, abs_lo, abs_lo + width, reason, attempts=retries + 1
                )
        out.append(block)
    return np.concatenate(out, axis=1)
