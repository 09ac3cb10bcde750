"""The checks suite run against the repository itself, plus the CLI.

The self-run is the real contract: ``src/repro`` (and benchmarks/,
examples/ under the relaxed rules) must be clean modulo the committed
baseline, so any new finding fails CI the same way a failing test does.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.checks.baseline import Baseline
from repro.checks.registry import all_analyzers
from repro.checks.runner import load_project, run_analyzers

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures" / "checks"


def run_cli(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.checks", "--root", str(root), *args],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )


@pytest.fixture
def mini_repo(tmp_path):
    """A three-module tree whose ``a.py`` carries one RES002 finding."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(textwrap.dedent("""
        import threading

        __all__ = ["save"]

        _lock = threading.Lock()

        def save(path, payload):
            with _lock:
                with open(path, "w") as fh:
                    fh.write(payload)
    """))
    (pkg / "b.py").write_text(textwrap.dedent("""
        from repro.a import save

        __all__ = ["publish"]

        def publish(path, payload):
            return save(path, payload)
    """))
    (pkg / "c.py").write_text(textwrap.dedent("""
        __all__ = ["standalone"]

        def standalone():
            return 42
    """))
    return tmp_path


def test_repo_is_clean_modulo_baseline():
    project = load_project(ROOT)
    findings = run_analyzers(project)
    baseline = Baseline.load(ROOT / "scripts" / "checks_baseline.json")
    new, baselined = baseline.split(findings)
    assert new == [], "\n".join(f.format() for f in new)
    assert baselined, "the committed waivers should be exercised"


def test_cli_clean_run_exits_zero():
    proc = run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout


def test_cli_json_is_stable_and_sorted():
    first = run_cli("--json")
    second = run_cli("--json")
    assert first.returncode == 0
    doc_one = json.loads(first.stdout)
    doc_two = json.loads(second.stdout)
    # Wall times vary run to run; everything else must be byte-stable.
    timings = doc_one.pop("timings_ms")
    doc_two.pop("timings_ms")
    assert doc_one == doc_two
    assert timings and all(ms >= 0 for ms in timings.values())
    assert doc_one["findings"] == []
    assert doc_one["baselined"] > 0
    assert doc_one["modules_scanned"] > 100


def test_cli_json_findings_sorted_without_baseline():
    proc = run_cli("--json", "--no-baseline")
    assert proc.returncode == 1
    document = json.loads(proc.stdout)
    keys = [
        (f["path"], f["line"], f["code"], f["message"])
        for f in document["findings"]
    ]
    assert keys == sorted(keys)
    assert all(
        set(f) >= {"code", "rule", "path", "line", "message", "fingerprint"}
        for f in document["findings"]
    )


@pytest.mark.parametrize("name", [
    "locks_bad.py", "taxonomy_bad.py", "contracts_bad.py", "api_bad.py",
])
def test_cli_bad_fixture_exits_nonzero(name):
    proc = run_cli(str(FIXTURES / name))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("name", [
    "locks_good.py", "taxonomy_good.py", "contracts_good.py", "api_good.py",
])
def test_cli_good_fixture_exits_zero(name):
    proc = run_cli(str(FIXTURES / name))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_only_selects_one_family():
    proc = run_cli(str(FIXTURES / "locks_bad.py"), "--only", "exception-taxonomy")
    assert proc.returncode == 0  # no taxonomy findings in the locks fixture


def test_only_accepts_individual_codes(mini_repo):
    proc = run_cli("--only", "RES002", "--json", root=mini_repo)
    assert proc.returncode == 1
    assert [f["code"] for f in json.loads(proc.stdout)["findings"]] == ["RES002"]


def test_json_reports_per_analyzer_wall_time(mini_repo):
    proc = run_cli("--json", root=mini_repo)
    timings = json.loads(proc.stdout)["timings_ms"]
    assert set(timings) == {a.name for a in all_analyzers()}
    assert all(isinstance(ms, (int, float)) and ms >= 0 for ms in timings.values())
    # a run leaves nothing behind in the tree it analyzed
    assert [p.name for p in mini_repo.iterdir()] == ["src"]


def test_cli_unknown_rule_is_usage_error():
    proc = run_cli("--only", "NOPE001")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for code in ("LCK001", "TAX002", "OPC007", "API003"):
        assert code in proc.stdout
