"""Fixture-pair tests for the resource-lifecycle family (RES002, a
blocking call under a lock) plus the line-drift stability of
fingerprints."""

from collections import Counter
from pathlib import Path

from repro.checks.baseline import Baseline
from repro.checks.res import ResourceLifecycleAnalyzer
from repro.checks.source import Project, load_module

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "checks"


def project_for(name: str) -> Project:
    mod = load_module(FIXTURES / name, f"tests/fixtures/checks/{name}")
    return Project(root=FIXTURES, modules=[mod])


def codes(findings) -> Counter:
    return Counter(f.code for f in findings)


# -- RES: resource lifecycle -------------------------------------------------

def test_res_good_is_clean():
    findings = list(ResourceLifecycleAnalyzer().run(project_for("res_good.py")))
    assert findings == [], [f.format() for f in findings]


def test_res_bad_findings():
    findings = list(ResourceLifecycleAnalyzer().run(project_for("res_bad.py")))
    assert codes(findings) == {"RES002": 3}


def test_res_holds_lock_method_composes_with_guarded_by():
    """``drain`` never takes the lock lexically — the # holds-lock
    marker plus the class's # guarded-by declaration supply it."""
    findings = list(ResourceLifecycleAnalyzer().run(project_for("res_bad.py")))
    drain_line = next(
        i for i, raw in enumerate(
            (FIXTURES / "res_bad.py").read_text().splitlines(), start=1
        )
        if "recv(4096)" in raw
    )
    assert any(f.code == "RES002" and f.line == drain_line for f in findings)


def _res_findings_under(tmp_path, marker: str):
    path = tmp_path / "mod.py"
    path.write_text(
        "import time\n\n\n"
        "def nap(lock):\n"
        "    with lock:\n"
        f"        time.sleep(1)  {marker}\n"
    )
    project = Project(root=tmp_path, modules=[load_module(path, "mod.py")])
    return list(ResourceLifecycleAnalyzer().run(project))


def test_noqa_with_foreign_codes_silences_none_of_ours(tmp_path):
    """A flake8 code in the marker is a list of codes, not a bare noqa."""
    assert codes(_res_findings_under(tmp_path, "# noqa: F401")) == {"RES002": 1}
    assert codes(_res_findings_under(tmp_path, "# noqa: E402, E731")) == {"RES002": 1}


def test_noqa_silences_only_the_codes_it_lists(tmp_path):
    assert _res_findings_under(tmp_path, "# noqa: F401, RES002 - reason") == []
    assert _res_findings_under(tmp_path, "# noqa") == []


# -- fingerprints ------------------------------------------------------------

def test_fingerprint_survives_line_drift(tmp_path):
    """Shifting a finding down the file (new code above it) must not
    change its fingerprint — else baselines churn on every edit."""
    body = (
        "import time\n\n\n"
        "def nap(lock):\n"
        "    with lock:\n"
        "        time.sleep(1)\n"
    )
    shifted = "# a comment\n\n\ndef unrelated():\n    return 1\n\n\n" + body

    def fingerprint(text: str) -> tuple[str, int]:
        path = tmp_path / "mod.py"
        path.write_text(text)
        project = Project(root=tmp_path, modules=[load_module(path, "mod.py")])
        (finding,) = ResourceLifecycleAnalyzer().run(project)
        return finding.fingerprint, finding.line

    original, line_one = fingerprint(body)
    drifted, line_two = fingerprint(shifted)
    assert line_one != line_two
    assert original == drifted


def test_baseline_matches_drifted_finding(tmp_path):
    """End to end: a finding pinned in the baseline stays pinned after
    its line moves."""
    body = (
        "import time\n\n\n"
        "def nap(lock):\n"
        "    with lock:\n"
        "        time.sleep(1)\n"
    )

    def findings_for(text: str):
        path = tmp_path / "mod.py"
        path.write_text(text)
        project = Project(root=tmp_path, modules=[load_module(path, "mod.py")])
        return list(ResourceLifecycleAnalyzer().run(project))

    first = findings_for(body)
    baseline_path = tmp_path / "baseline.json"
    Baseline.load(None).save(baseline_path, first)
    drifted = findings_for("\n\n\n" + body)
    new, baselined = Baseline.load(baseline_path).split(drifted)
    assert new == []
    assert len(baselined) == 1
