"""Harness self-tests: run with

    PYTHONPATH=src python -m pytest benchmarks/harness/tests -q

They drive the real command at ``--scale smoke`` (a minute or so in all).
"""

import json
import os
import subprocess
import sys

import pytest

HARNESS = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
if HARNESS not in sys.path:
    sys.path.insert(0, HARNESS)

SMOKE_SEED = 7
SMOKE_SECONDS = "0.5"


def run_harness(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, os.path.join(HARNESS, "run.py"), "--scale", "smoke",
         "--seconds", SMOKE_SECONDS, *args],
        capture_output=True, text=True, timeout=600,
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def _suite(tmp_path_factory, name: str, *args: str) -> dict:
    out = tmp_path_factory.mktemp(name) / "doc.json"
    prefix = tmp_path_factory.mktemp(name + "-trace") / "trace"
    run_harness("--seed", str(SMOKE_SEED), "--out", str(out),
                "--trace-out", str(prefix), *args)
    with open(out, encoding="utf-8") as fh:
        document = json.load(fh)
    document["trace_prefix"] = str(prefix)
    return document


@pytest.fixture(scope="session")
def suite(tmp_path_factory) -> dict:
    """All five workloads, untraced then traced, one seed."""
    return _suite(tmp_path_factory, "suite")


@pytest.fixture(scope="session")
def traced_again(tmp_path_factory) -> dict:
    """The traced half once more with the same seed."""
    return _suite(tmp_path_factory, "again", "--trace", "1")
