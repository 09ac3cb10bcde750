"""Tests for automatic system-setting selection (paper §VIII future work)."""

import pytest

from repro.arrayudf.engine import WorkloadSpec
from repro.cluster import cori_haswell
from repro.core.autoselect import PlanOption, best_plan, plan
from repro.errors import ConfigError


def paper_workload():
    return WorkloadSpec(
        total_bytes=int(1.9 * 2**40),
        n_files=2880,
        master_bytes=30000 * 1440 * 2 * 8,
    )


class TestPlan:
    def test_options_sorted_best_first(self):
        options = plan(cori_haswell(), paper_workload(), node_counts=[91, 364, 728])
        feasible = [o for o in options if o.feasible]
        assert feasible
        times = [o.total_time for o in feasible]
        assert times == sorted(times)

    def test_infeasible_options_reported_not_dropped(self):
        options = plan(
            cori_haswell(),
            paper_workload(),
            node_counts=[91],
            cores_per_node=16,
        )
        mpi_91 = [o for o in options if o.engine == "mpi-arrayudf"]
        assert len(mpi_91) == 1
        assert not mpi_91[0].feasible
        assert "memory" in mpi_91[0].reason

    def test_hybrid_dominates_mpi_at_scale(self):
        best = best_plan(
            cori_haswell(),
            paper_workload(),
            node_counts=[364, 728],
            cores_per_node=16,
            read_pattern="native",
        )
        assert best.engine == "hybrid-arrayudf"

    def test_node_hours_objective_prefers_fewer_nodes(self):
        workload = paper_workload()
        fast = best_plan(
            cori_haswell(), workload, node_counts=[91, 1456], cores_per_node=8,
            objective="time", include_mpi_engine=False,
        )
        cheap = best_plan(
            cori_haswell(), workload, node_counts=[91, 1456], cores_per_node=8,
            objective="node_hours", include_mpi_engine=False,
        )
        assert cheap.nodes <= fast.nodes
        assert cheap.node_hours <= fast.node_hours

    def test_balanced_objective_runs(self):
        best = best_plan(
            cori_haswell(), paper_workload(),
            node_counts=[91, 364, 1456], cores_per_node=8, objective="balanced",
            include_mpi_engine=False,
        )
        assert isinstance(best, PlanOption)
        assert best.feasible

    def test_small_workload_prefers_small_allocation(self):
        tiny = WorkloadSpec(total_bytes=10 * 2**30, n_files=16)
        cheap = best_plan(
            cori_haswell(), tiny, node_counts=[8, 364], cores_per_node=8,
            objective="node_hours", include_mpi_engine=False,
        )
        assert cheap.nodes == 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            plan(cori_haswell(), paper_workload(), objective="vibes")
        with pytest.raises(ConfigError):
            plan(cori_haswell(4), paper_workload(), node_counts=[8])
        with pytest.raises(ConfigError):
            plan(cori_haswell(), paper_workload(), node_counts=[])
        with pytest.raises(ConfigError):
            plan(cori_haswell(), paper_workload(), cores_per_node=999)

    def test_no_feasible_plan_raises(self):
        # A workload whose master channel alone exceeds node memory.
        impossible = WorkloadSpec(
            total_bytes=2**30, n_files=4, master_bytes=256 * 2**30
        )
        with pytest.raises(ConfigError, match="no feasible"):
            best_plan(
                cori_haswell(), impossible, node_counts=[91], cores_per_node=16
            )

    def test_cores_used_property(self):
        option = PlanOption(
            engine="x", nodes=10, ranks_per_node=2, threads_per_rank=8,
            total_time=1.0, node_hours=1.0, feasible=True,
        )
        assert option.cores_used == 160
