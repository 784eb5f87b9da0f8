"""Simulation metrics."""

import pytest

from repro.sim.metrics import SimulationResult, TaskRecord


def make_result():
    return SimulationResult(
        scheduler_name="test",
        sim_time_s=0.1,
        peak_temperature_c=66.0,
        time_above_dtm_s=0.0,
        tasks=[
            TaskRecord(0, "canneal", 4, arrival_s=0.0, completion_s=0.08),
            TaskRecord(1, "x264", 2, arrival_s=0.02, completion_s=0.06),
        ],
        dtm_triggers=3,
        migration_count=10,
        scheduler_wall_time_s=0.002,
        scheduler_invocations=4,
    )


class TestDerivedMetrics:
    def test_makespan(self):
        assert make_result().makespan_s == pytest.approx(0.08)

    def test_mean_response(self):
        # responses: 0.08 and 0.04
        assert make_result().mean_response_time_s == pytest.approx(0.06)

    def test_response_of(self):
        result = make_result()
        assert result.response_time_of(1) == pytest.approx(0.04)
        with pytest.raises(KeyError):
            result.response_time_of(9)

    def test_peak_temperature(self):
        assert make_result().peak_temperature_c == pytest.approx(66.0)

    def test_scheduler_overhead(self):
        assert make_result().mean_scheduler_overhead_s() == pytest.approx(5e-4)

    def test_empty_results_raise(self):
        empty = SimulationResult("x", 0.0, 45.0, 0.0)
        with pytest.raises(ValueError):
            _ = empty.makespan_s
        with pytest.raises(ValueError):
            _ = empty.mean_response_time_s
        assert empty.mean_scheduler_overhead_s() == 0.0

    def test_summary_mentions_key_numbers(self):
        text = make_result().summary()
        assert "makespan" in text
        assert "peak temperature=66.00 C" in text
        assert "test" in text
        assert "DTM" in text
