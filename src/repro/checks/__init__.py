"""repro.checks — static analysis and runtime sanitizers for the repro tree.

The codebase is a genuinely concurrent system: ``apply_mt`` and
``run_chunks`` run UDFs and chains on worker threads, ``hdf5lite.cache``
shares a ``BlockCache``/``FilePool`` across readers, ``rt.ingest``'s
``Quarantine`` guards its maps with a lock, and ``simmpi`` ranks are
threads.  The paper's scaling claim (§IV-B) rests on that machinery
staying thread-safe, so this package is the correctness tooling that
guards it:

* :mod:`repro.checks.locks` — lock discipline: attributes annotated
  ``# guarded-by: <lock-attr>`` may only be mutated inside a
  ``with self.<lock-attr>:`` block (or a method marked ``# holds-lock``);
* :mod:`repro.checks.taxonomy` — exception taxonomy: broad/bare
  excepts, ``raise`` of builtins where a :mod:`repro.errors` type
  exists, silently-swallowed handlers;
* :mod:`repro.checks.contracts` — operator contracts:
  :class:`~repro.core.pipeline.Operator` subclasses must declare
  consistent ``halo``/``decimate``/``channel_halo``/``stream_safe``,
  override the right hooks, and give the planner an interval algebra
  that composes (the ``PLN`` codes);
* :mod:`repro.checks.api` — public API: ``__all__`` completeness and
  cross-layer import direction (``hdf5lite`` must never import ``rt``);
* :mod:`repro.checks.res` — resource lifecycle: no blocking call while
  a lock is held;
* :mod:`repro.checks.bls` — BLAS calls: no BLAS-backed product on the
  executor's worker threads;
* :mod:`repro.checks.runtime` — an instrumented ``Lock``/``RLock``
  sanitizer for tests: lock-order-inversion detection and guarded
  attribute access without the lock held (zero overhead when not
  installed — production code uses plain ``threading`` locks).

The six analyzers form one fixed table
(:func:`~repro.checks.registry.all_analyzers`).  What a test run
catches needs no analyzer: a handle left open fails the suite as a
``ResourceWarning``, a collective some rank skips as an ``MPIError``
after the communicator's ``recv_timeout``, and the write order of
:mod:`repro.utils.durable` is pinned by recording its ``os`` calls.

Run ``python -m repro.checks`` from the repository root; see
``--help`` for ``--json`` / ``--baseline`` / ``--update-baseline`` /
``--only``.  The committed baseline lives in
``scripts/checks_baseline.json``.
"""

from repro.checks.baseline import Baseline, Waiver
from repro.checks.findings import Finding
from repro.checks.registry import Analyzer, all_analyzers
from repro.checks.runner import load_project, run_analyzers
from repro.checks.runtime import LockSanitizer, SanitizerViolation
from repro.checks.source import Project, SourceModule

__all__ = [
    "Analyzer",
    "Baseline",
    "Finding",
    "LockSanitizer",
    "Project",
    "SanitizerViolation",
    "SourceModule",
    "Waiver",
    "all_analyzers",
    "load_project",
    "run_analyzers",
]
