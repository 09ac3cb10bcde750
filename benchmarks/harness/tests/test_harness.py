"""What the harness promises about itself, checked at smoke scale."""

import io
import json
import os

import pytest

import common
import compare
import envinfo
import run
import spec
import workloads
from conftest import SMOKE_SEED, run_harness
from tracing import Tracer


def records(document: dict, trace: int) -> dict:
    return {r["workload"]: r for r in document["runs"] if r["trace"] == trace}


# -- names ---------------------------------------------------------------------

def test_benchmark_json_is_generated_from_spec():
    assert common.read_json(common.BENCHMARK_JSON) == spec.benchmark_document()


def test_printed_names_equal_the_contract(suite):
    contract = common.read_json(common.BENCHMARK_JSON)
    declared = [w["name"] for w in contract["workloads"]]
    assert list(records(suite, 0)) == declared == list(workloads.NAMES)
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    taken_somewhere = set()
    for name in declared:
        untraced = records(suite, 0)[name]["metrics"]
        assert {k: v["unit"] for k, v in untraced.items()} == end_to_end
        assert all(v["value"] > 0 for v in untraced.values()), untraced
        traced = records(suite, 1)[name]
        taken_somewhere |= set(traced["metrics"])
        # the driver's line carries every declared per-layer metric
        line = json.loads(run.contract_line(traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == per_layer
    assert taken_somewhere == set(per_layer)


def test_result_document_carries_the_fingerprint(suite):
    env = suite["env"]
    for key in ("commit", "python", "numpy", "scipy", "nproc", "cpu", "scale", "seed"):
        assert env[key] not in (None, "")
    assert env["scale"] == "smoke" and env["seed"] == SMOKE_SEED
    for record in records(suite, 0).values():
        assert set(record["samples"]) == set(spec.E2E_NAMES)
        assert record["samples"]["wall_s"] >= 3


# -- correctness ----------------------------------------------------------------

def test_every_oracle_passes(suite):
    for record in suite["runs"]:
        assert record["correct"] and record["failed"] == 0, record["workload"]
        assert record["attempted"] >= 1


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_injected_wrong_answer_is_counted(workload):
    proc = run_harness("--workload", workload, "--trace", "0", "--corrupt")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["failed"] > 0 and line["correct"] is False


# -- determinism -----------------------------------------------------------------

def test_same_seed_gives_exactly_equal_counts(suite, traced_again):
    first, second = records(suite, 1), records(traced_again, 1)
    checked = 0
    for name in workloads.NAMES:
        for metric in spec.layer_metrics_for(name):
            if metric.unit in compare.EXACT_UNITS:
                a = first[name]["metrics"][metric.name]["value"]
                b = second[name]["metrics"][metric.name]["value"]
                assert a == b, (name, metric.name, a, b)
                checked += 1
    assert checked >= 25


def test_seed_drives_the_request_sequence(tmp_path):
    from workloads import serve_fleet

    params = common.SCALES["smoke"]["serve_fleet"]

    def schedule(seed: int, where: str):
        manifest = serve_fleet.setup(seed, dict(params), str(tmp_path / where))
        assert "seed" not in manifest  # the measured side never sees it
        return common.read_json(manifest["requests"])

    for where in ("a", "b", "c"):
        os.makedirs(tmp_path / where)
    assert schedule(3, "a") == schedule(3, "b")
    assert schedule(3, "a") != schedule(4, "c")


# -- tracing ---------------------------------------------------------------------

def test_proxies_are_transparent(suite):
    """Traced passes: bit-identical outputs (the oracle compares every pass
    with the traced one) and identical IOStats counts."""
    for name, record in records(suite, 1).items():
        assert record["failed"] == 0
        assert record["diagnostics"]["io_identical"], name


def test_trace_export(suite):
    for name in workloads.NAMES:
        jsonl = f"{suite['trace_prefix']}.{name}.jsonl"
        with open(jsonl, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        by_id = {s["id"]: s for s in spans}
        assert sum(s["name"] == "pass" for s in spans) == 1
        for span in spans:
            assert span["end_s"] >= span["start_s"]
            assert -1e-9 <= span["self_s"] <= span["end_s"] - span["start_s"] + 1e-9
            assert span["parent"] is None or span["parent"] in by_id
        chrome = common.read_json(f"{suite['trace_prefix']}.{name}.chrome.json")
        assert len(chrome["traceEvents"]) == len(spans)


def test_self_time_is_span_minus_child_coverage():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 4.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer", "core") as outer:          # 0 .. 10
        with tracer.span("first", "storage") as first:   # 1 .. 2
            pass
        with tracer.span("second", "storage") as second:  # 2.5 .. 4
            pass
    self_times = tracer.self_times()
    assert self_times[first.id] == 1.0 and self_times[second.id] == 1.5
    assert self_times[outer.id] == 10.0 - 1.0 - 1.5
    assert first.parent == second.parent == outer.id and outer.parent is None


def test_disabled_tracer_hands_back_the_callers_objects():
    tracer = Tracer(enabled=False)

    def fn():
        return 1

    assert tracer.wrap(fn, "fn", "core") is fn
    sentinel = object()
    assert tracer.source(sentinel) is sentinel
    with tracer.span("x", "core") as span:
        assert span is None
    assert tracer.spans == []


# -- load ------------------------------------------------------------------------

def test_load_never_exceeds_the_cores():
    from workloads import batch_detect

    cores = envinfo.nproc()
    assert batch_detect.THREADS <= cores
    for scale in common.SCALES.values():
        assert scale["serve_fleet"]["tenants"] <= cores


def test_refuses_to_time_on_one_core(monkeypatch):
    monkeypatch.setattr(envinfo, "nproc", lambda: 1)
    with pytest.raises(SystemExit, match="sized for 2"):
        envinfo.require_cores()


# -- compare ---------------------------------------------------------------------

def _document(wall_values, failed=0, seed=1):
    return {"runs": [
        {"workload": "batch_detect", "seed": seed, "trace": 0, "attempted": 10,
         "failed": failed, "metrics": {"wall_s": {"value": v, "unit": "s"}}}
        for v in wall_values
    ]}


@pytest.mark.parametrize("a, b, failed_b, verdict, status", [
    ([1.00, 1.01, 1.02, 1.01], [1.02, 1.03, 1.01, 1.02], 0, "ok", 0),
    ([1.00, 1.01, 1.02, 1.01], [1.20, 1.21, 1.22, 1.21], 0, "regressed", 1),
    ([0.80, 1.00, 1.30, 1.60], [1.50, 1.51, 1.52, 1.51], 0, "unresolved", 0),
    ([1.00, 1.01, 1.02, 1.01], [1.00, 1.01, 1.02, 1.01], 1, "ok", 1),
])
def test_compare_verdicts(a, b, failed_b, verdict, status):
    out = io.StringIO()
    contract = {
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10}
        ],
        "per_layer": [],
    }
    got = compare.compare(_document(a), _document(b, failed_b), contract, out=out)
    row = next(l for l in out.getvalue().splitlines() if " wall_s " in l)
    assert row.split()[-1] == verdict
    assert got == status
