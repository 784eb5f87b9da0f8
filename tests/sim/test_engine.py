"""Interval simulator engine: end-to-end behaviour on the small platform."""

import numpy as np
import pytest

from repro import config
from repro.obs import Observer, TraceRecorder
from repro.sched.fixed_rotation import FixedRotationScheduler
from repro.sched.naive import PeakFrequencyScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task


@pytest.fixture(scope="module")
def cfg():
    return config.motivational()


@pytest.fixture(scope="module")
def shared_model(cfg):
    from repro.thermal.calibrate import calibrated_model

    return calibrated_model(cfg)


def make_sim(cfg, model, scheduler, tasks, **kwargs):
    return IntervalSimulator(
        cfg, scheduler, tasks, ctx=SimContext(cfg, model), **kwargs
    )


class TestBasicRun:
    def test_single_task_completes(self, cfg, shared_model):
        tasks = [Task(0, PARSEC["canneal"], 2, seed=1)]
        sim = make_sim(cfg, shared_model, PeakFrequencyScheduler(), tasks)
        result = sim.run(max_time_s=2.0)
        assert len(result.tasks) == 1
        assert result.tasks[0].benchmark == "canneal"
        assert 0 < result.tasks[0].response_time_s < 2.0

    def test_work_conservation(self, cfg, shared_model):
        task = Task(0, PARSEC["x264"], 4, seed=2)
        total = task.total_instructions()
        sim = make_sim(cfg, shared_model, PeakFrequencyScheduler(), [task])
        sim.run(max_time_s=2.0)
        assert task.instructions_retired() == pytest.approx(total, rel=1e-9)

    def test_trace_recorded(self, cfg, shared_model):
        tasks = [Task(0, PARSEC["canneal"], 2, seed=1)]
        recorder = TraceRecorder()
        sim = make_sim(
            cfg,
            shared_model,
            PeakFrequencyScheduler(),
            tasks,
            observer=Observer(trace=recorder),
        )
        start = sim.thermal_state.core_temperatures()
        result = sim.run(max_time_s=2.0)
        intervals = recorder.intervals()
        assert len(intervals) > 10
        # the peak is the hottest core over the t = 0 sample and every
        # end-of-interval sample
        assert result.peak_temperature_c == max(
            max(start), *(max(r.temps_c) for r in intervals)
        )
        assert result.peak_temperature_c > cfg.thermal.ambient_c

    def test_energy_positive_and_bounded(self, cfg, shared_model):
        tasks = [Task(0, PARSEC["canneal"], 2, seed=1)]
        sim = make_sim(cfg, shared_model, PeakFrequencyScheduler(), tasks)
        result = sim.run(max_time_s=2.0)
        max_possible = 16 * 9.0 * result.sim_time_s
        assert 0 < result.energy_j < max_possible

    def test_max_time_respected(self, cfg, shared_model):
        tasks = [Task(0, PARSEC["canneal"], 2, seed=1, work_scale=1000.0)]
        sim = make_sim(cfg, shared_model, PeakFrequencyScheduler(), tasks)
        result = sim.run(max_time_s=0.02)
        assert result.sim_time_s <= 0.02 + 1e-9
        assert len(result.tasks) == 0  # did not finish


class TestArrivals:
    def test_arrival_time_honoured(self, cfg, shared_model):
        tasks = [
            Task(0, PARSEC["canneal"], 2, arrival_time_s=0.0, seed=1),
            Task(1, PARSEC["canneal"], 2, arrival_time_s=0.0303, seed=2),
        ]
        sim = make_sim(cfg, shared_model, PeakFrequencyScheduler(), tasks)
        result = sim.run(max_time_s=2.0)
        second = result.response_time_of(1)
        assert result.tasks[1].completion_s > 0.0303
        assert second == pytest.approx(
            result.tasks[1].completion_s - 0.0303, abs=1e-9
        )

    def test_idle_gap_fast_forward(self, cfg, shared_model):
        """A long gap before the first arrival is skipped in one thermal
        step, not simulated interval by interval."""
        tasks = [Task(0, PARSEC["canneal"], 2, arrival_time_s=5.0, seed=1)]
        sim = make_sim(cfg, shared_model, PeakFrequencyScheduler(), tasks)
        result = sim.run(max_time_s=10.0)
        assert len(result.tasks) == 1
        # far fewer decisions than 10 s / 0.5 ms
        assert result.scheduler_invocations < 2000


class TestMigrationAccounting:
    def test_rotation_charges_migrations(self, cfg, shared_model):
        tasks = [Task(0, PARSEC["blackscholes"], 2, seed=1)]
        sim = make_sim(
            cfg, shared_model, FixedRotationScheduler(tau_s=0.5e-3), tasks
        )
        result = sim.run(max_time_s=2.0)
        assert result.migration_count > 100
        assert result.migration_penalty_s > 0

    def test_rotation_slower_than_static(self, cfg, shared_model):
        """Migration debt must cost wall-clock time (the paper's ~8 %)."""
        static = make_sim(
            cfg,
            shared_model,
            PeakFrequencyScheduler(),
            [Task(0, PARSEC["blackscholes"], 2, seed=1)],
            dtm_enabled=False,
        ).run(2.0)
        rotating = make_sim(
            cfg,
            shared_model,
            FixedRotationScheduler(tau_s=0.5e-3),
            [Task(0, PARSEC["blackscholes"], 2, seed=1)],
            dtm_enabled=False,
        ).run(2.0)
        assert rotating.makespan_s > static.makespan_s * 1.02

    def test_rotation_cools_the_chip(self, cfg, shared_model):
        static = make_sim(
            cfg,
            shared_model,
            PeakFrequencyScheduler(),
            [Task(0, PARSEC["blackscholes"], 2, seed=1)],
            dtm_enabled=False,
        ).run(2.0)
        rotating = make_sim(
            cfg,
            shared_model,
            FixedRotationScheduler(tau_s=0.5e-3),
            [Task(0, PARSEC["blackscholes"], 2, seed=1)],
            dtm_enabled=False,
        ).run(2.0)
        assert rotating.peak_temperature_c < static.peak_temperature_c - 5.0


class TestDtmIntegration:
    # the unmanaged motivational run crosses the threshold only from a warm
    # package (HotSniper-style ROI warm-up, see repro.experiments.fig2)
    WARM_W = 2.8

    def test_dtm_contains_temperature(self, cfg, shared_model):
        """With DTM on, an unmanaged hot workload stays near the threshold
        instead of running away."""
        tasks = [Task(0, PARSEC["blackscholes"], 2, seed=1)]
        sim = make_sim(
            cfg,
            shared_model,
            PeakFrequencyScheduler(),
            tasks,
            warm_start_uniform_power_w=self.WARM_W,
        )
        result = sim.run(max_time_s=2.0)
        assert result.dtm_triggers > 0
        assert result.peak_temperature_c < 72.5

    def test_dtm_off_lets_it_burn(self, cfg, shared_model):
        tasks = [Task(0, PARSEC["blackscholes"], 2, seed=1)]
        sim = make_sim(
            cfg,
            shared_model,
            PeakFrequencyScheduler(),
            tasks,
            dtm_enabled=False,
            warm_start_uniform_power_w=self.WARM_W,
        )
        result = sim.run(max_time_s=2.0)
        assert result.dtm_triggers == 0
        assert result.peak_temperature_c > cfg.thermal.dtm_threshold_c

    def test_dtm_costs_performance(self, cfg, shared_model):
        with_dtm = make_sim(
            cfg,
            shared_model,
            PeakFrequencyScheduler(),
            [Task(0, PARSEC["blackscholes"], 2, seed=1)],
            warm_start_uniform_power_w=self.WARM_W,
        ).run(2.0)
        without = make_sim(
            cfg,
            shared_model,
            PeakFrequencyScheduler(),
            [Task(0, PARSEC["blackscholes"], 2, seed=1)],
            dtm_enabled=False,
            warm_start_uniform_power_w=self.WARM_W,
        ).run(2.0)
        assert with_dtm.makespan_s > without.makespan_s


class TestSchedulerValidation:
    def test_duplicate_core_rejected(self, cfg, shared_model):
        from repro.sched.base import Scheduler, SchedulerDecision

        class BrokenScheduler(Scheduler):
            name = "broken"

            def _can_admit(self, task):
                return True

            def _admit(self, task, now_s):
                pass

            def _release(self, task, now_s):
                pass

            def decide(self, now_s):
                return SchedulerDecision(
                    placements={"0.0": 3, "0.1": 3},
                    frequencies=np.full(16, 4.0e9),
                )

        tasks = [Task(0, PARSEC["canneal"], 2, seed=1)]
        sim = make_sim(cfg, shared_model, BrokenScheduler(), tasks)
        with pytest.raises(ValueError, match="two threads"):
            sim.run(max_time_s=0.1)

    def test_missing_thread_rejected(self, cfg, shared_model):
        from repro.sched.base import Scheduler, SchedulerDecision

        class ForgetfulScheduler(Scheduler):
            name = "forgetful"

            def _can_admit(self, task):
                return True

            def _admit(self, task, now_s):
                pass

            def _release(self, task, now_s):
                pass

            def decide(self, now_s):
                return SchedulerDecision(
                    placements={"0.0": 3}, frequencies=np.full(16, 4.0e9)
                )

        tasks = [Task(0, PARSEC["canneal"], 2, seed=1)]
        sim = make_sim(cfg, shared_model, ForgetfulScheduler(), tasks)
        with pytest.raises(ValueError, match="mismatch"):
            sim.run(max_time_s=0.1)
