"""Runtime failure policy of the streaming executor.

A :class:`FailurePolicy` says what :func:`~repro.core.pipeline.run_chunks`
(behind ``DASSA(failure_policy=)``) does when a chunk's read or chain
fails: how many times to retry (with what backoff), and whether a
persistent failure kills the run (``fail_fast``) or yields a fill-valued
gap that is *reported* alongside the result (``continue``).  The RT
shard supervisor reads its ``retries``/``backoff`` for service rebuilds.

:func:`retry_call` is the one bounded-retry-with-backoff loop used by
every layer, so retry semantics (which exceptions are retryable, how
backoff grows) are identical from ``parallel_read`` up to ``run_chunks``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import ConfigError, ReproError

T = TypeVar("T")

FAIL_FAST = "fail_fast"
CONTINUE = "continue"

#: Exceptions worth retrying: framework-level failures and OS-level I/O
#: errors.  Programming errors (TypeError, ...) always propagate.
RETRYABLE = (ReproError, OSError)


@dataclass(frozen=True)
class FailurePolicy:
    """What to do when a unit of work fails.

    ``mode`` — ``"fail_fast"`` raises the typed error after retries are
    exhausted; ``"continue"`` fills the failed unit's output with
    ``fill`` and records the loss (a reported gap, not a crash).
    ``retries`` — re-executions after the first failure (0 = one shot).
    ``backoff`` — seconds slept before retry *k* is ``backoff * 2**k``
    (0 disables sleeping; tests use 0).
    ``fill`` — the value written into outputs lost to a failed unit.
    """

    mode: str = FAIL_FAST
    retries: int = 1
    backoff: float = 0.0
    fill: float = float("nan")

    def __post_init__(self) -> None:
        if self.mode not in (FAIL_FAST, CONTINUE):
            raise ConfigError(f"mode must be 'fail_fast' or 'continue', got {self.mode!r}")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.backoff < 0:
            raise ConfigError("backoff must be >= 0")

    @property
    def fail_fast(self) -> bool:
        return self.mode == FAIL_FAST


def retry_call(
    fn: Callable[[], T],
    retries: int = 1,
    backoff: float = 0.0,
    retry_on: tuple = RETRYABLE,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` with bounded retry and exponential backoff.

    Attempt *k* (0-based) failing with an exception in ``retry_on``
    sleeps ``backoff * 2**k`` and retries, up to ``retries`` re-runs;
    the final failure propagates unchanged (callers wrap it in the typed
    taxonomy with their own path/offset context).
    """
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    attempt = 0
    while True:
        try:
            return fn()
        except retry_on:
            if attempt >= retries:
                raise
            if backoff > 0:
                sleep(backoff * (2**attempt))
            attempt += 1
