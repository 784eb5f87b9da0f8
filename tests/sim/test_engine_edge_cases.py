"""Engine edge cases."""

import numpy as np
import pytest

from repro.obs import Observer, TraceRecorder
from repro.sched import FixedRotationScheduler, PeakFrequencyScheduler
from repro.sim import IntervalSimulator, SimContext
from repro.workload import PARSEC, Task


class TestEdgeCases:
    def test_empty_task_list(self, cfg16, model16):
        sim = IntervalSimulator(
            cfg16, PeakFrequencyScheduler(), [], ctx=SimContext(cfg16, model16)
        )
        result = sim.run(max_time_s=0.1)
        assert result.tasks == []
        assert result.sim_time_s == 0.0

    def test_arrival_at_exact_interval_boundary(self, cfg16, model16):
        tasks = [
            Task(0, PARSEC["canneal"], 2, arrival_time_s=0.0, seed=1),
            Task(1, PARSEC["canneal"], 2, arrival_time_s=0.0005, seed=2),
        ]
        sim = IntervalSimulator(
            cfg16, PeakFrequencyScheduler(), tasks, ctx=SimContext(cfg16, model16)
        )
        result = sim.run(max_time_s=2.0)
        assert len(result.tasks) == 2

    def test_arrival_mid_interval_lands_exactly(self, cfg16, model16):
        """The engine clips intervals so arrivals are processed at their
        exact timestamp, not rounded to the next boundary."""
        tasks = [Task(0, PARSEC["canneal"], 2, arrival_time_s=0.00037, seed=1)]
        sim = IntervalSimulator(
            cfg16, PeakFrequencyScheduler(), tasks, ctx=SimContext(cfg16, model16)
        )
        result = sim.run(max_time_s=2.0)
        record = result.tasks[0]
        assert record.arrival_s == pytest.approx(0.00037)
        assert record.completion_s > record.arrival_s

    def test_simultaneous_arrivals(self, cfg16, model16):
        tasks = [
            Task(i, PARSEC["canneal"], 2, arrival_time_s=0.005, seed=i)
            for i in range(3)
        ]
        sim = IntervalSimulator(
            cfg16, PeakFrequencyScheduler(), tasks, ctx=SimContext(cfg16, model16)
        )
        result = sim.run(max_time_s=2.0)
        assert len(result.tasks) == 3

    def test_warm_start_sets_initial_trace_sample(self, cfg16, model16):
        sim = IntervalSimulator(
            cfg16,
            PeakFrequencyScheduler(),
            [Task(0, PARSEC["canneal"], 2, seed=1)],
            ctx=SimContext(cfg16, model16),
            warm_start_uniform_power_w=3.0,
        )
        first = sim.thermal_state.core_temperatures()
        assert np.max(first) > 55.0  # clearly pre-heated
        # the t = 0 sample counts toward the peak
        assert sim.run(max_time_s=0.01).peak_temperature_c >= np.max(first)

    def test_single_core_task_on_rotating_scheduler(self, cfg16, model16):
        """A 1-thread task still rotates over the whole ring."""
        sim = IntervalSimulator(
            cfg16,
            FixedRotationScheduler(tau_s=0.5e-3),
            [Task(0, PARSEC["swaptions"], 1, seed=1)],
            ctx=SimContext(cfg16, model16),
        )
        result = sim.run(max_time_s=2.0)
        assert result.tasks
        assert result.migration_count > 10

    def test_scheduler_wall_time_measured(self, cfg16, model16):
        sim = IntervalSimulator(
            cfg16,
            PeakFrequencyScheduler(),
            [Task(0, PARSEC["canneal"], 2, seed=1)],
            ctx=SimContext(cfg16, model16),
        )
        result = sim.run(max_time_s=1.0)
        assert result.scheduler_invocations > 0
        assert result.scheduler_wall_time_s > 0.0

    def test_trace_times_strictly_increasing_samples(self, cfg16, model16):
        recorder = TraceRecorder()
        sim = IntervalSimulator(
            cfg16,
            PeakFrequencyScheduler(),
            [Task(0, PARSEC["canneal"], 2, seed=1)],
            ctx=SimContext(cfg16, model16),
            observer=Observer(trace=recorder),
        )
        sim.run(max_time_s=1.0)
        times = [0.0] + [r.time_s + r.dt_s for r in recorder.intervals()]
        assert np.all(np.diff(times) > 0)
