"""Smoke tests: every shipped example must run to completion and print
its headline results.  Kept at scaled sizes so the whole module stays
under a minute."""

import inspect
import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name: str, timeout: float = 300.0) -> str:
    path = os.path.join(EXAMPLES, name)
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "VCA shape" in out
        assert "smoothing reduced RMS" in out

    def test_earthquake_detection(self):
        out = run_example("earthquake_detection.py")
        # the streamed facade run reported its profile ...
        assert "6 chunks of 3000 samples" in out
        # ... and the event table has a row of every kind in the scene
        table = out[out.index("detected 4 events:"):].splitlines()[2:6]
        assert sorted({row.split()[0] for row in table}) == [
            "earthquake", "persistent", "vehicle",
        ]

    def test_traffic_interferometry(self):
        out = run_example("traffic_interferometry.py")
        assert "streamed in 4 chunks" in out
        # Alg. 3's per-channel lines: the master correlates fully with itself
        assert "  ch   0: 1.000 " in out
        assert sum(line.startswith("  ch ") for line in out.splitlines()) == 6
        assert "moveout recovered" in out

    def test_scaling_study(self):
        out = run_example("scaling_study.py")
        assert "OUT OF MEMORY" in out.upper() or "out of memory" in out
        assert "1456" in out

    def test_continuous_monitoring(self):
        out = run_example("continuous_monitoring.py")
        assert "identical to the streamed log" in out
        spool = out.splitlines()[0].removeprefix("spool: ")
        assert not os.path.exists(spool)

    def test_velocity_profiling(self):
        out = run_example("velocity_profiling.py")
        assert "m/s" in out
        assert "err" in out


def test_every_example_has_a_smoke_case():
    """The examples run only here (CI has no separate loop over them):
    every ``examples/<name>.py`` needs a ``TestExamples.test_<name>`` that
    runs it."""
    names = sorted(f[:-3] for f in os.listdir(EXAMPLES) if f.endswith(".py"))
    assert names
    missing = [
        name
        for name in names
        if f'run_example("{name}.py")'
        not in inspect.getsource(getattr(TestExamples, f"test_{name}", lambda: None))
    ]
    assert missing == []
