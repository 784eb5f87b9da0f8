"""Energy accounting: per-core integrals, EDP, J/instruction, gauges.

The engine integrates per-core power into ``energy_per_core_j`` alongside
the existing chip total, counts retired instructions, and — when metrics
are attached — publishes the ``energy.*`` gauge family plus response-time
percentiles at finalization (docs/observability.md).
"""

import pytest

from repro.io import result_from_dict, result_to_dict
from repro.obs import MetricsRegistry, Observer
from repro.sched.hotpotato_runtime import HotPotatoScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task


@pytest.fixture(scope="module")
def energy_run(cfg4):
    tasks = [
        Task(0, PARSEC["blackscholes"], 2, seed=0, work_scale=0.5),
        Task(1, PARSEC["swaptions"], 2, arrival_time_s=0.005, seed=1,
             work_scale=0.5),
    ]
    observer = Observer(metrics=MetricsRegistry())
    sim = IntervalSimulator(
        cfg4,
        HotPotatoScheduler(),
        tasks,
        ctx=SimContext(cfg4),
        observer=observer,
    )
    result = sim.run(max_time_s=2.0)
    return cfg4, result


class TestEnergyIntegrals:
    def test_per_core_energy_sums_to_chip_total(self, energy_run):
        cfg, result = energy_run
        assert len(result.energy_per_core_j) == cfg.n_cores
        assert sum(result.energy_per_core_j) == pytest.approx(
            result.energy_j, rel=1e-9
        )

    def test_every_core_burned_at_least_idle_energy(self, energy_run):
        cfg, result = energy_run
        floor = cfg.thermal.idle_power_w * result.sim_time_s
        for core_energy in result.energy_per_core_j:
            assert core_energy >= floor * (1 - 1e-9)

    def test_instructions_retired_matches_the_workload(self, energy_run):
        _, result = energy_run
        assert result.instructions_retired > 0
        assert result.tasks, "both tasks should have completed"

    def test_edp_is_energy_times_span(self, energy_run):
        _, result = energy_run
        assert result.edp_js == pytest.approx(
            result.energy_j * result.sim_time_s
        )

    def test_energy_per_instruction(self, energy_run):
        _, result = energy_run
        expected = result.energy_j / result.instructions_retired
        assert result.energy_per_instruction_j == pytest.approx(expected)

    def test_response_time_quantiles_bracket_the_tasks(self, energy_run):
        _, result = energy_run
        times = sorted(t.response_time_s for t in result.tasks)
        assert result.response_time_quantile_s(0.0) == pytest.approx(times[0])
        assert result.response_time_quantile_s(1.0) == pytest.approx(times[-1])
        p50 = result.response_time_quantile_s(0.5)
        assert times[0] <= p50 <= times[-1]


class TestEnergyGauges:
    def test_energy_gauges_published(self, energy_run):
        _, result = energy_run
        snapshot = result.metrics_snapshot
        assert snapshot["energy.total_j"] == pytest.approx(result.energy_j)
        assert snapshot["energy.edp_js"] == pytest.approx(result.edp_js)
        assert snapshot["energy.j_per_instruction"] == pytest.approx(
            result.energy_per_instruction_j
        )
        assert snapshot["energy.per_core_max_j"] == pytest.approx(
            max(result.energy_per_core_j)
        )
        assert snapshot["energy.per_core_mean_j"] == pytest.approx(
            sum(result.energy_per_core_j) / len(result.energy_per_core_j)
        )

    def test_response_time_percentiles_published(self, energy_run):
        _, result = energy_run
        snapshot = result.metrics_snapshot
        assert snapshot["engine.response_time_p50_s"] > 0
        assert (
            snapshot["engine.response_time_p99_s"]
            >= snapshot["engine.response_time_p50_s"]
        )


class TestEnergyRoundTrip:
    def test_io_round_trips_the_new_fields(self, energy_run):
        _, result = energy_run
        back = result_from_dict(result_to_dict(result))
        assert back.energy_per_core_j == pytest.approx(
            result.energy_per_core_j
        )
        assert back.instructions_retired == pytest.approx(
            result.instructions_retired
        )

    def test_pre_energy_dicts_still_load(self, energy_run):
        """Back-compat: dicts from before per-core accounting load with
        empty per-core data and zero retired instructions."""
        _, result = energy_run
        data = result_to_dict(result)
        data.pop("energy_per_core_j")
        data.pop("instructions_retired")
        back = result_from_dict(data)
        assert back.energy_per_core_j == []
        assert back.instructions_retired == 0.0
        assert back.energy_j == pytest.approx(result.energy_j)
