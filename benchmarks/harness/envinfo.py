"""Environment fingerprint and the two-core guard."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

from common import REPO_ROOT

#: The workloads are sized for two cores (``threads=2`` inside the program,
#: two tenant threads); timings from a smaller box would not be comparable.
MIN_NPROC = 2


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def require_cores() -> None:
    """Refuse to report timings from a machine the load was not sized for."""
    if nproc() < MIN_NPROC:
        raise SystemExit(
            f"benchmark harness: {nproc()} usable core(s); the workloads are "
            f"sized for {MIN_NPROC} and their timings would not be comparable"
        )


def _cpu_model() -> str:
    fallback = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:  # no procfs: the platform module's answer will do
        return fallback
    return fallback


def _commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree (the
    driver's checkout is a plain directory)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10, check=False,
            # never look for a repository above the checkout
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(REPO_ROOT)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def fingerprint(scale: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "scale": scale,
        "seed": seed,
    }
