"""Thread-parallel execution of fused operator chains over row blocks.

DASSA's Hybrid ArrayUDF Execution Engine structure, with a whole
vectorised chain in place of a per-cell UDF: the output rows are split
**statically** among threads (``#pragma omp for schedule(static)`` as in
:func:`repro.arrayudf.apply_mt.apply_mt`), each thread runs the entire
fused chain on its private row block, and the per-thread results are
concatenated in schedule order — the same prefix-offset merge as
Algorithm 1.  All threads share the one input block, so node-level state
(e.g. a master spectrum) exists once per block rather than once per
thread.

:func:`partition_row_blocks` is that schedule; the streaming execution
core (:mod:`repro.core.pipeline`) uses it to split the rows of a
*single-chunk* plan over its run's worker pool — a plan of several
chunks parallelises over chunks instead.  :func:`map_blocks_mt` is the
standalone form: it starts its own threads for one call and joins them
(the benchmark harness times it as the row-split probe).
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.arrayudf.partition import partition_1d
from repro.errors import UDFError


def map_blocks_mt(
    n_rows: int,
    threads: int,
    worker: Callable[[int, int, int], object],
) -> list:
    """Run ``worker(thread_id, row_lo, row_hi)`` over a static partition of
    ``range(n_rows)`` and return the per-thread results in schedule order
    (i.e. ascending row order — the caller concatenates them).

    Threads whose slice is empty are skipped.  Worker exceptions are
    collected and re-raised as :class:`~repro.errors.UDFError`, first
    failure wins — the same contract as ``apply_mt``.
    """
    if n_rows < 0:
        raise UDFError("n_rows must be >= 0")
    if threads < 1:
        raise UDFError("threads must be >= 1")
    threads = min(threads, max(1, n_rows))
    if threads == 1:
        return [worker(0, 0, n_rows)]

    results: list = [None] * threads
    taken: list[bool] = [False] * threads
    errors: list[BaseException] = []
    errors_lock = threading.Lock()

    def run(thread_id: int) -> None:
        try:
            lo, hi = partition_1d(n_rows, threads, thread_id)
            if hi > lo:
                results[thread_id] = worker(thread_id, lo, hi)
                taken[thread_id] = True
        except BaseException as exc:  # noqa: BLE001 - propagate worker errors
            with errors_lock:
                errors.append(exc)

    pool = [
        threading.Thread(target=run, args=(h,), name=f"fused-mt-{h}")
        for h in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        first = errors[0]
        raise UDFError(
            f"fused chain failed in worker: {type(first).__name__}: {first}"
        ) from first
    return [r for r, ok in zip(results, taken) if ok]


def partition_row_blocks(n_rows: int, threads: int) -> Sequence[tuple[int, int]]:
    """The non-empty ``(lo, hi)`` row slices ``map_blocks_mt`` would use."""
    threads = min(max(1, threads), max(1, n_rows))
    out = []
    for h in range(threads):
        lo, hi = partition_1d(n_rows, threads, h)
        if hi > lo:
            out.append((lo, hi))
    return out
