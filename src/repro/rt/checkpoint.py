"""Crash-consistent JSON checkpoints for kill-and-resume.

A checkpoint is one JSON document: the list of fully-processed files
(with their sample counts), the incremental runner's carried state (tail
digest + watermarks — the raw tail samples are *not* serialised, they
are re-read from the durable acquisition files on resume by
:func:`read_sample_range`), the open event run and the retry counts (the
backlog is not saved: a resume rescans the spool).
A tail that cannot be re-read raises; the service then resumes without
its carried state and reports why (``RTService.resume_error``).  Writes
go through :func:`repro.utils.durable.publish`, so a kill mid-write
leaves the previous checkpoint intact, never a torn one.

Two defences make a *corrupted* checkpoint recoverable rather than
fatal:

* every document carries a CRC32 of its canonical payload, so a torn
  or bit-flipped file is *detected* (truncation breaks the JSON, a
  parseable mutation breaks the CRC, a document without one is refused
  as unverifiable) — never silently resumed from;
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
from repro.utils.durable import publish

CHECKPOINT_VERSION = 1
CHECKPOINT_NAME = ".das_rt_checkpoint.json"
PREVIOUS_SUFFIX = ".prev"
#: Re-reads of a checkpoint-tail file after its first failed read.
_TAIL_READ_RETRIES = 1


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

    def save(self, payload: dict) -> None:
        """Atomically persist ``payload`` (version + CRC stamped here),
        demoting the current checkpoint to the ``.prev`` generation, so a
        kill at any point leaves at least one verifiable generation."""
        # Encoded once: the canonical body the CRC covers is the body
        # written, with the ``crc`` member appended inside its brace.
        body = _canonical({"version": CHECKPOINT_VERSION, **payload})
        publish(
            self.path,
            body[:-1] + b', "crc": %d}' % zlib.crc32(body),
            previous=self.previous_path,
        )

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
        if document.get("crc") != zlib.crc32(_canonical(document)):
            raise CheckpointCorruptError(
                path, "crc mismatch" if "crc" in document else "no crc"
            )
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
        checkpoint exists but no generation verifies.  A returned
        document came from the primary exactly when :attr:`last_error`
        is ``None``.
        """
        self.last_error = None
        primary_error: CheckpointCorruptError | None = None
        if os.path.exists(self.path):
            try:
                return self._read_document(self.path)
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
            return document
        if primary_error is not None:
            raise primary_error
        return None

    def clear(self) -> None:
        for path in (self.path, self.previous_path):
            if os.path.exists(path):
                os.remove(path)


def read_sample_range(files: list[tuple[str, int]], lo: int, hi: int) -> np.ndarray:
    """Re-read raw samples ``[lo, hi)`` of the concatenated record.

    ``files`` lists ``(path, n_samples)`` in record order — the
    checkpoint's ``files_done``.  Only the overlapping slice of each
    file is read (partial reads through :class:`DASFile`), which is how a
    resume rebuilds the carried tail without re-reading whole files.

    Each file read is retried once, so a transient fault is absorbed; a
    file that stays unreadable raises its error, and the caller decides
    what a lost tail costs.
    """
    if lo < 0 or hi < lo:
        raise StorageError(f"bad sample range [{lo}, {hi})")
    blocks: list[np.ndarray] = []
    offset = 0
    for path, n_samples in files:
        file_lo, offset = offset, offset + int(n_samples)
        if offset <= lo or file_lo >= hi:
            continue
        a = max(lo, file_lo) - file_lo
        b = min(hi, offset) - file_lo

        def read_slice() -> np.ndarray:
            with DASFile(path) as handle:
                return np.asarray(handle.data[:, a:b], dtype=np.float64)

        blocks.append(
            retry_call(
                read_slice,
                retries=_TAIL_READ_RETRIES,
                retry_on=(ReproError, OSError),
            )
        )
    if offset < hi:
        raise StorageError(
            f"checkpointed files cover {offset} samples but the carried "
            f"tail needs [{lo}, {hi})"
        )
    if blocks:
        return np.concatenate(blocks, axis=1)
    n_channels = 0
    if files:
        with DASFile(files[0][0]) as handle:
            n_channels = handle.data.shape[0]
    return np.zeros((n_channels, 0))
