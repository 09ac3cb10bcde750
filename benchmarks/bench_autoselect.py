"""Extension bench — automatic system-setting selection (paper §VIII).

The paper closes with "how to automatically select system settings,
such as the number of nodes, to run the analysis code is another topic
we will explore in future."  Built on the machine model, the planner
answers that question for the paper's own 1.9 TB workload under three
objectives.
"""

from repro.arrayudf.engine import WorkloadSpec
from repro.cluster import cori_haswell
from repro.core.autoselect import best_plan, plan

WORKLOAD = WorkloadSpec(
    total_bytes=int(1.9 * 2**40),
    n_files=2880,
    master_bytes=30000 * 1440 * 2 * 8,
)
NODE_COUNTS = [91, 182, 364, 728, 1456]


def test_planner_benchmark(benchmark):
    result = benchmark.pedantic(
        plan,
        args=(cori_haswell(), WORKLOAD),
        kwargs={"node_counts": NODE_COUNTS, "cores_per_node": 16},
        rounds=2,
        iterations=1,
    )
    assert any(option.feasible for option in result)


def test_planner_table(benchmark, report):
    benchmark.pedantic(_planner_table, args=(report,), rounds=1, iterations=1)


def _planner_table(report):
    lines = [
        "Extension - automatic system-setting selection (paper SS VIII)",
        "workload: 1.9 TB / 2880 files, 16 cores per node",
        "",
        f"{'objective':<12} {'engine':<17} {'nodes':>6} {'time(s)':>9} {'node-h':>8}",
    ]
    picks = {}
    for objective in ("time", "node_hours", "balanced"):
        best = best_plan(
            cori_haswell(),
            WORKLOAD,
            node_counts=NODE_COUNTS,
            cores_per_node=16,
            objective=objective,
        )
        picks[objective] = best
        lines.append(
            f"{objective:<12} {best.engine:<17} {best.nodes:>6} "
            f"{best.total_time:>9.1f} {best.node_hours:>8.2f}"
        )

    lines += ["", "all evaluated options (time objective):"]
    options = plan(
        cori_haswell(), WORKLOAD, node_counts=NODE_COUNTS, cores_per_node=16
    )
    for option in options:
        status = (
            f"{option.total_time:8.1f}s {option.node_hours:7.2f} node-h"
            if option.feasible
            else "infeasible (OOM)"
        )
        lines.append(f"  {option.engine:<17} {option.nodes:>5} nodes  {status}")
    report("planner", lines)

    # Sanity of the three answers:
    assert picks["time"].total_time <= picks["node_hours"].total_time
    assert picks["node_hours"].node_hours <= picks["time"].node_hours
    # The planner never recommends the configuration the paper saw die.
    assert not (
        picks["time"].engine == "mpi-arrayudf" and picks["time"].nodes == 91
    )
    for best in picks.values():
        assert best.feasible
