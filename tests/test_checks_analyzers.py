"""Unit tests for the repro.checks analyzer suite against fixture files.

Each analyzer gets a good/bad fixture pair under
``tests/fixtures/checks/``; bad fixtures document the exact findings
they seed.  Library-context rules (TAX002, BLS001) are exercised by
loading the same fixture under a synthetic ``src/repro/...`` rel, since
fixture files live outside the library tree.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.checks.baseline import Baseline, Waiver
from repro.checks.bls import ANALYSIS_LAYERS, BlasCallAnalyzer
from repro.checks.locks import LockDisciplineAnalyzer
from repro.checks.runner import load_project, run_analyzers
from repro.checks.source import Project, load_module
from repro.checks.taxonomy import ExceptionTaxonomyAnalyzer
from repro.errors import ConfigError

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "checks"
ROOT_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def project_for(name: str, rel: str | None = None) -> Project:
    mod = load_module(FIXTURES / name, rel or f"tests/fixtures/checks/{name}")
    return Project(root=FIXTURES, modules=[mod])


def codes(findings) -> Counter:
    return Counter(f.code for f in findings)


# -- lock discipline ---------------------------------------------------------

def test_locks_good_is_clean():
    findings = list(LockDisciplineAnalyzer().run(project_for("locks_good.py")))
    assert findings == []


def test_locks_bad_findings():
    findings = list(LockDisciplineAnalyzer().run(project_for("locks_bad.py")))
    assert codes(findings) == {"LCK001": 3, "LCK002": 1}


def test_locks_flags_mutation_moved_outside_with_block():
    """The acceptance case: a mutation that used to sit inside
    ``with self._lock:`` and was moved below the block is flagged."""
    text = (FIXTURES / "locks_bad.py").read_text()
    moved_line = next(
        i for i, raw in enumerate(text.splitlines(), start=1)
        if "moved outside the with-block" in raw
    )
    findings = list(LockDisciplineAnalyzer().run(project_for("locks_bad.py")))
    flagged = [f for f in findings if f.code == "LCK001" and f.line == moved_line]
    assert len(flagged) == 1
    assert "count" in flagged[0].message


def test_locks_closure_does_not_inherit_with_block():
    findings = list(LockDisciplineAnalyzer().run(project_for("locks_bad.py")))
    assert any(
        f.code == "LCK001" and "closure_trap" in f.message for f in findings
    )


# -- BLAS calls on the analysis path -----------------------------------------

@pytest.mark.parametrize("layer", sorted(ANALYSIS_LAYERS))
def test_bls_bad_findings_in_every_analysis_layer(layer):
    project = project_for("bls_bad.py", rel=f"src/repro/{layer}/bls_bad.py")
    findings = list(BlasCallAnalyzer().run(project))
    assert codes(findings) == {"BLS001": 7}
    spelled = Counter(f.message.split(" calls ")[0] for f in findings)
    assert spelled == {
        "the @ operator": 2, "np.dot": 1, "np.matmul": 1, "np.inner": 1,
        "np.vdot": 1, "np.tensordot": 1,
    }


@pytest.mark.parametrize("rel", [
    None,  # a fixture outside the library
    "src/repro/hdf5lite/bls_bad.py",
    "src/repro/simmpi/bls_bad.py",
    "benchmarks/bls_bad.py",
])
def test_bls_only_looks_at_the_analysis_path(rel):
    assert list(BlasCallAnalyzer().run(project_for("bls_bad.py", rel=rel))) == []


def test_bls_good_is_clean():
    project = project_for("bls_good.py", rel="src/repro/daslib/bls_good.py")
    assert list(BlasCallAnalyzer().run(project)) == []


def test_bls_strip_mined_gemm_is_the_only_waiver():
    """The shipped tree's one BLAS call on the analysis path is the
    decimator's strip-mined GEMM, waived with a reason in the baseline."""
    root = ROOT_SRC.parent.parent
    project = load_project(root)
    findings = list(BlasCallAnalyzer().run(project))
    assert {f.path for f in findings} == {"src/repro/daslib/resample.py"}
    baseline = Baseline.load(root / "scripts" / "checks_baseline.json")
    new, waived = baseline.split(findings)
    assert new == [] and len(waived) == len(findings) == 1
    assert [w.path for w in baseline.waivers if w.code == "BLS001"] == [
        "src/repro/daslib/resample.py"
    ]


# -- exception taxonomy ------------------------------------------------------

def test_taxonomy_good_is_clean():
    findings = list(
        ExceptionTaxonomyAnalyzer().run(project_for("taxonomy_good.py"))
    )
    assert findings == []


def test_taxonomy_bad_outside_library():
    findings = list(
        ExceptionTaxonomyAnalyzer().run(project_for("taxonomy_bad.py"))
    )
    # TAX002 needs library (src/repro) context; the rest fire anywhere.
    assert codes(findings) == {"TAX001": 2, "TAX003": 1}


def test_taxonomy_bad_as_library_adds_builtin_raise():
    findings = list(ExceptionTaxonomyAnalyzer().run(
        project_for("taxonomy_bad.py", rel="src/repro/utils/taxonomy_bad.py")
    ))
    assert codes(findings) == {"TAX001": 2, "TAX002": 1, "TAX003": 1}
    tax2 = next(f for f in findings if f.code == "TAX002")
    assert "ValueError" in tax2.message
    assert "ConfigError" in tax2.hint


def test_taxonomy_ble001_alias_still_suppresses(tmp_path):
    path = tmp_path / "legacy.py"
    path.write_text(
        "def f(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception:  # noqa: BLE001 - legacy boundary\n"
        "        return None\n"
    )
    mod = load_module(path, "src/repro/utils/legacy.py")
    findings = list(
        ExceptionTaxonomyAnalyzer().run(Project(root=tmp_path, modules=[mod]))
    )
    assert findings == []
    # a foreign code in the same marker does not turn it into a bare noqa
    path.write_text(path.read_text().replace("BLE001", "F401"))
    mod = load_module(path, "src/repro/utils/legacy.py")
    findings = list(
        ExceptionTaxonomyAnalyzer().run(Project(root=tmp_path, modules=[mod]))
    )
    assert codes(findings) == {"TAX001": 1}


# -- baseline mechanics ------------------------------------------------------

def test_waiver_matching_and_split_multiplicity():
    project = project_for("locks_bad.py")
    findings = run_analyzers(project, only=["lock-discipline"])
    assert findings  # sorted by Finding.sort_key already
    waived = Baseline(waivers=[
        Waiver(path="tests/fixtures/checks/*", reason="fixture", rule="lock-discipline")
    ])
    new, baselined = waived.split(findings)
    assert new == [] and len(baselined) == len(findings)

    # Pin one fingerprint once: duplicates beyond the pinned count stay new.
    pinned = Baseline()
    pinned.pinned[findings[0].fingerprint] += 1
    new, baselined = pinned.split(findings)
    assert len(baselined) == 1
    assert len(new) == len(findings) - 1


def test_update_baseline_preserves_reasons(tmp_path):
    project = project_for("locks_bad.py")
    findings = run_analyzers(project, only=["lock-discipline"])
    baseline = Baseline()
    baseline.pinned[findings[0].fingerprint] += 1
    baseline.pinned_meta[findings[0].fingerprint] = {
        "fingerprint": findings[0].fingerprint,
        "reason": "known debt, tracked in ISSUE-42",
    }
    doc = baseline.updated_document(findings)
    by_fp = {entry["fingerprint"]: entry for entry in doc["findings"]}
    assert by_fp[findings[0].fingerprint]["reason"] == "known debt, tracked in ISSUE-42"
    other = next(fp for fp in by_fp if fp != findings[0].fingerprint)
    assert "unreviewed" in by_fp[other]["reason"]

    # Round-trip through disk.
    out = tmp_path / "baseline.json"
    baseline.save(out, findings)
    reloaded = Baseline.load(out)
    new, baselined = reloaded.split(findings)
    assert new == []


def test_runner_rejects_unknown_only_token():
    project = project_for("locks_good.py")
    with pytest.raises(ConfigError, match="BOGUS999"):
        run_analyzers(project, only=["BOGUS999"])


def test_parse_error_surfaces_as_par001(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    project = load_project(tmp_path, [bad])
    findings = run_analyzers(project)
    assert codes(findings) == {"PAR001": 1}
