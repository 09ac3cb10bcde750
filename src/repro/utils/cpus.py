"""How many CPUs a process may use: the one rule every worker pool sizes by
(hdf5lite's codec pool, the monitoring service's row pool).  Callers look
it up as ``cpus.available()`` so that a test patches it in one place."""

from __future__ import annotations

import os

__all__ = ["available"]


def available() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset -c 0`` makes it 1), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
