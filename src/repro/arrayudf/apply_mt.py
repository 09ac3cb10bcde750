"""ApplyMT — the multithreaded Apply of the Hybrid ArrayUDF Execution
Engine (paper Algorithm 1).

Faithful to the paper's OpenMP structure:

* the core cells are linearised and split **statically** among ``t``
  threads (``#pragma omp for schedule(static)``),
* each thread appends its results to a private vector ``Rp`` (no locks
  on the output),
* a barrier, then an exclusive prefix sum over the per-thread sizes
  computes each thread's displacement,
* every thread copies its ``Rp`` into its slice of the shared result
  ``R`` in parallel.

Because all threads share the one input block, node-level data (e.g.
the master channel of a cross-correlation) exists once per node rather
than once per core — the memory fix of Fig. 8.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro.arrayudf.apply import cell_grid
from repro.arrayudf.partition import partition_1d
from repro.arrayudf.stencil import Stencil
from repro.errors import UDFError


def apply_mt(
    block: np.ndarray,
    udf: Callable[[Stencil], float],
    threads: int = 4,
    core_rows: tuple[int, int] | None = None,
    core_cols: tuple[int, int] | None = None,
    row_stride: int = 1,
    col_stride: int = 1,
    boundary: str = "error",
    dtype: object = np.float64,
) -> np.ndarray:
    """Multithreaded Apply (Algorithm 1).  Same contract as
    :func:`repro.arrayudf.apply.apply`, computed by ``threads`` worker
    threads with per-thread result vectors merged via prefix offsets.
    A failing UDF raises :class:`~repro.errors.UDFError` chained to the
    first worker's exception."""
    block = np.asarray(block)
    row_cells, col_cells = cell_grid(
        block.shape, core_rows, core_cols, row_stride, col_stride
    )
    n_rows, n_cols = len(row_cells), len(col_cells)
    n_cells = n_rows * n_cols
    if threads < 1:
        raise UDFError("threads must be >= 1")
    threads = min(threads, max(1, n_cells))

    # Shared result vector R and per-thread private vectors Rp.
    result = np.empty(n_cells, dtype=dtype)
    partials: list[list] = [[] for _ in range(threads)]
    sizes = [0] * threads
    errors: list[BaseException] = []
    errors_lock = threading.Lock()
    barrier = threading.Barrier(threads)

    def worker(thread_id: int) -> None:
        try:
            lo, hi = partition_1d(n_cells, threads, thread_id)
            rp = partials[thread_id]
            for flat in range(lo, hi):
                row = row_cells[flat // n_cols]
                col = col_cells[flat % n_cols]
                rp.append(udf(Stencil(block, row, col, boundary=boundary)))
            sizes[thread_id] = len(rp)  # p[h] = Rp.size()
            barrier.wait()  # #pragma omp barrier
            # Exclusive prefix over sizes gives this thread's displacement
            # (Algorithm 1 computes it once in a single section; each
            # thread recomputing the same prefix is equivalent and
            # lock-free).
            displacement = sum(sizes[:thread_id])
            result[displacement : displacement + len(rp)] = rp
        except BaseException as exc:  # noqa: BLE001 - propagate worker errors
            with errors_lock:
                errors.append(exc)
            barrier.abort()

    if threads == 1:
        worker(0)
    else:
        pool = [
            threading.Thread(target=worker, args=(h,), name=f"applymt-{h}")
            for h in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

    if errors:
        first = errors[0]
        if isinstance(first, threading.BrokenBarrierError):
            first = next(
                (e for e in errors if not isinstance(e, threading.BrokenBarrierError)),
                first,
            )
        raise UDFError(f"UDF failed in ApplyMT: {type(first).__name__}: {first}") from first
    return result.reshape(n_rows, n_cols)

