"""Result serialization round trips."""

import pytest

from repro.io import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.sim.metrics import SimulationResult, TaskRecord


@pytest.fixture()
def result():
    return SimulationResult(
        scheduler_name="hotpotato",
        sim_time_s=0.1,
        peak_temperature_c=55.123456789,
        time_above_dtm_s=1.5e-3,
        tasks=[TaskRecord(0, "x264", 4, 0.0, 0.05)],
        dtm_triggers=2,
        dtm_core_time_s=1e-3,
        migration_count=17,
        migration_penalty_s=5e-4,
        energy_j=3.25,
        scheduler_wall_time_s=0.01,
        scheduler_invocations=100,
        annotations={"note": 1.0},
    )


class TestResultJson:
    def test_round_trip(self, result):
        restored = result_from_dict(result_to_dict(result))
        assert restored.scheduler_name == "hotpotato"
        assert restored.makespan_s == pytest.approx(result.makespan_s)
        assert restored.migration_count == 17
        assert restored.annotations == {"note": 1.0}

    def test_round_trip_keeps_thermal_summary(self, result):
        restored = result_from_dict(result_to_dict(result))
        assert restored.peak_temperature_c == result.peak_temperature_c
        assert restored.time_above_dtm_s == result.time_above_dtm_s

    def test_result_without_thermal_summary_is_rejected(self, result):
        data = result_to_dict(result)
        del data["peak_temperature_c"]
        with pytest.raises(KeyError):
            result_from_dict(data)

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_result(result, path)
        restored = load_result(path)
        assert restored.tasks[0].benchmark == "x264"
        assert restored.tasks[0].response_time_s == pytest.approx(0.05)

    def test_json_is_valid(self, result, tmp_path):
        import json

        path = tmp_path / "result.json"
        save_result(result, path)
        json.loads(path.read_text())

    def test_engine_output_serializes(self, cfg16, model16, tmp_path):
        """A real simulation result survives the round trip."""
        from repro.sched import PeakFrequencyScheduler
        from repro.sim import IntervalSimulator, SimContext
        from repro.workload import PARSEC, Task

        sim = IntervalSimulator(
            cfg16,
            PeakFrequencyScheduler(),
            [Task(0, PARSEC["canneal"], 2, seed=1)],
            ctx=SimContext(cfg16, model16),
        )
        original = sim.run(max_time_s=1.0)
        path = tmp_path / "run.json"
        save_result(original, path)
        restored = load_result(path)
        assert restored.makespan_s == pytest.approx(original.makespan_s)
        assert restored.peak_temperature_c == original.peak_temperature_c
        assert restored.time_above_dtm_s == original.time_above_dtm_s
