"""PCGov: TSP-budgeted DVFS."""

import numpy as np
import pytest

from repro.sched.pcgov import PCGovScheduler
from repro.sim.context import SimContext
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task


def make(cfg, model, **kwargs):
    sched = PCGovScheduler(**kwargs)
    sched.attach(SimContext(cfg, model))
    return sched


class TestGovernor:
    def test_hot_threads_throttled(self, cfg64, model64):
        """A full load of hot threads must be slowed below f_max."""
        sched = make(cfg64, model64)
        for task_id in range(8):
            sched.on_task_arrival(
                Task(task_id, PARSEC["blackscholes"], 8, seed=task_id), 0.0
            )
        decision = sched.decide(0.0)
        occupied = list(decision.placements.values())
        assert np.all(decision.frequencies[occupied] < cfg64.dvfs.f_max_hz)

    def test_cold_threads_run_at_fmax(self, cfg64, model64):
        """Canneal fits the budget at full activity: no throttling."""
        sched = make(cfg64, model64)
        for task_id in range(8):
            sched.on_task_arrival(
                Task(task_id, PARSEC["canneal"], 8, seed=task_id), 0.0
            )
        decision = sched.decide(0.0)
        occupied = list(decision.placements.values())
        assert np.all(decision.frequencies[occupied] == cfg64.dvfs.f_max_hz)

    def test_frequencies_are_quantized(self, cfg64, model64):
        sched = make(cfg64, model64)
        for task_id in range(8):
            sched.on_task_arrival(
                Task(task_id, PARSEC["swaptions"], 8, seed=task_id), 0.0
            )
        decision = sched.decide(0.0)
        levels = set(np.round(np.array(sched.ctx.dvfs.levels) / 1e5))
        for core in decision.placements.values():
            assert round(decision.frequencies[core] / 1e5) in levels

    def test_budget_grows_as_tasks_leave(self, cfg64, model64):
        sched = make(cfg64, model64)
        tasks = [
            Task(task_id, PARSEC["blackscholes"], 8, seed=task_id)
            for task_id in range(8)
        ]
        for task in tasks:
            sched.on_task_arrival(task, 0.0)
        full_budget = sched._budget_w
        for task in tasks[:6]:
            sched.on_task_complete(task, 0.1)
        assert sched._budget_w > full_budget

    def test_governor_profile_is_thermally_safe(self, cfg64, model64):
        """Steady state under profile-governed frequencies never exceeds
        the threshold: the budget is enforced at full activity."""
        sched = make(cfg64, model64)
        for task_id in range(8):
            sched.on_task_arrival(
                Task(task_id, PARSEC["blackscholes"], 8, seed=task_id), 0.0
            )
        decision = sched.decide(0.0)
        power = np.full(64, cfg64.thermal.idle_power_w)
        perf = sched.ctx.perf
        pm = sched.ctx.power_model
        profile = PARSEC["blackscholes"]
        for thread, core in decision.placements.items():
            f = float(decision.frequencies[core])
            compute, stall = perf.activity_fractions(profile, core, f)
            power[core] = pm.core_power_w(profile.p_dyn_ref_w, f, compute, stall)
        from repro.thermal.steady_state import steady_peak

        peak = steady_peak(model64, power, cfg64.thermal.ambient_c)
        assert peak <= cfg64.thermal.dtm_threshold_c + 1e-6

    def test_budget_modes_differ(self, cfg64, model64):
        mapping = make(cfg64, model64, budget_mode="mapping")
        worst = make(cfg64, model64, budget_mode="worst-case")
        task_m = Task(0, PARSEC["blackscholes"], 2, seed=1)
        task_w = Task(0, PARSEC["blackscholes"], 2, seed=1)
        mapping.on_task_arrival(task_m, 0.0)
        worst.on_task_arrival(task_w, 0.0)
        # worst-case budgeting is never more generous
        assert worst._budget_w <= mapping._budget_w + 1e-9

    def test_invalid_modes(self):
        with pytest.raises(ValueError):
            PCGovScheduler(budget_mode="bogus")

    def test_no_migrations_ever(self, cfg64, model64):
        sched = make(cfg64, model64)
        task = Task(0, PARSEC["x264"], 4, seed=1)
        sched.on_task_arrival(task, 0.0)
        placements = [sched.decide(t * 1e-3).placements for t in range(5)]
        assert all(p == placements[0] for p in placements)
