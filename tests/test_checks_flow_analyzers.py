"""Fixture-pair tests for the flow-sensitive analyzer families:
CCM (simmpi protocol), RES (resource lifecycle), ATM (atomic
persistence) — plus the line-drift stability of fingerprints."""

from collections import Counter
from pathlib import Path

from repro.checks.atm import AtomicPersistenceAnalyzer
from repro.checks.baseline import Baseline
from repro.checks.ccm import CommProtocolAnalyzer
from repro.checks.res import ResourceLifecycleAnalyzer
from repro.checks.source import Project, load_module

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "checks"


def project_for(name: str) -> Project:
    mod = load_module(FIXTURES / name, f"tests/fixtures/checks/{name}")
    return Project(root=FIXTURES, modules=[mod])


def codes(findings) -> Counter:
    return Counter(f.code for f in findings)


# -- CCM: simmpi protocol ----------------------------------------------------

def test_ccm_good_is_clean():
    findings = list(CommProtocolAnalyzer().run(project_for("ccm_good.py")))
    assert findings == [], [f.format() for f in findings]


def test_ccm_bad_findings():
    findings = list(CommProtocolAnalyzer().run(project_for("ccm_bad.py")))
    assert codes(findings) == {"CCM001": 2, "CCM002": 1, "CCM003": 1}


def test_ccm_collective_found_interprocedurally():
    """allreduce_through_helper never names a collective itself — the
    allreduce sits one call deep, behind ``collect``."""
    findings = list(CommProtocolAnalyzer().run(project_for("ccm_bad.py")))
    assert any(
        f.code == "CCM001" and "allreduce_through_helper" in f.message
        for f in findings
    )


def test_ccm_matched_send_recv_through_helpers_is_clean():
    """The good twin of the interprocedural case: push/pull helpers
    pair a send with its recv across the rank branch."""
    findings = list(CommProtocolAnalyzer().run(project_for("ccm_good.py")))
    assert not any("matched_through_helpers" in f.message for f in findings)


def test_ccm_error_guard_arm_is_not_a_role_split():
    findings = list(CommProtocolAnalyzer().run(project_for("ccm_good.py")))
    assert not any("guarded_self_send" in f.message for f in findings)


# -- RES: resource lifecycle -------------------------------------------------

def test_res_good_is_clean():
    findings = list(ResourceLifecycleAnalyzer().run(project_for("res_good.py")))
    assert findings == [], [f.format() for f in findings]


def test_res_bad_findings():
    findings = list(ResourceLifecycleAnalyzer().run(project_for("res_bad.py")))
    assert codes(findings) == {"RES001": 3, "RES002": 3}


def test_res_leak_reported_on_exception_path_only_when_closed_normally():
    """leak_on_exception closes on the happy path; only the exception
    edge between open and close leaks."""
    findings = list(ResourceLifecycleAnalyzer().run(project_for("res_bad.py")))
    exc_leaks = [
        f for f in findings
        if f.code == "RES001" and "leak_on_exception" in f.message
    ]
    assert len(exc_leaks) == 1
    assert "exception path" in exc_leaks[0].message


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


# -- ATM: atomic persistence -------------------------------------------------

def test_atm_good_is_clean():
    findings = list(AtomicPersistenceAnalyzer().run(project_for("atm_good.py")))
    assert findings == [], [f.format() for f in findings]


def test_atm_bad_findings():
    findings = list(AtomicPersistenceAnalyzer().run(project_for("atm_bad.py")))
    assert codes(findings) == {"ATM001": 2, "ATM002": 2, "ATM003": 2}


def test_atm_noqa_suppresses_write(tmp_path):
    src = (
        "def save_report(path, text):\n"
        "    with open(path, \"w\") as fh:"
        "  # noqa: ATM001 - throwaway artifact\n"
        "        fh.write(text)\n"
    )
    path = tmp_path / "mod.py"
    path.write_text(src)
    project = Project(root=tmp_path, modules=[load_module(path, "mod.py")])
    assert list(AtomicPersistenceAnalyzer().run(project)) == []


# -- fingerprints ------------------------------------------------------------

def test_fingerprint_survives_line_drift(tmp_path):
    """Shifting a finding down the file (new code above it) must not
    change its fingerprint — else baselines churn on every edit."""
    body = (
        "def save_bare(path, payload):\n"
        "    with open(path, \"w\") as fh:\n"
        "        fh.write(payload)\n"
    )
    shifted = "# a comment\n\n\ndef unrelated():\n    return 1\n\n\n" + body

    def fingerprint(text: str) -> tuple[str, int]:
        path = tmp_path / "mod.py"
        path.write_text(text)
        project = Project(root=tmp_path, modules=[load_module(path, "mod.py")])
        (finding,) = AtomicPersistenceAnalyzer().run(project)
        return finding.fingerprint, finding.line

    original, line_one = fingerprint(body)
    drifted, line_two = fingerprint(shifted)
    assert line_one != line_two
    assert original == drifted


def test_baseline_matches_drifted_finding(tmp_path):
    """End to end: a finding pinned in the baseline stays pinned after
    its line moves."""
    body = (
        "def save_bare(path, payload):\n"
        "    with open(path, \"w\") as fh:\n"
        "        fh.write(payload)\n"
    )

    def findings_for(text: str):
        path = tmp_path / "mod.py"
        path.write_text(text)
        project = Project(root=tmp_path, modules=[load_module(path, "mod.py")])
        return list(AtomicPersistenceAnalyzer().run(project))

    first = findings_for(body)
    baseline_path = tmp_path / "baseline.json"
    Baseline.load(None).save(baseline_path, first)
    drifted = findings_for("\n\n\n" + body)
    new, baselined = Baseline.load(baseline_path).split(drifted)
    assert new == []
    assert len(baselined) == 1
