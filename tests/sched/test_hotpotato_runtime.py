"""HotPotato scheduler glued into the simulator."""

import numpy as np
import pytest

from repro.sched.hotpotato_runtime import HotPotatoScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task


def simulate(cfg, model, tasks, **kwargs):
    sched = HotPotatoScheduler()
    sim = IntervalSimulator(
        cfg, sched, tasks, ctx=SimContext(cfg, model), **kwargs
    )
    return sched, sim


class TestBasics:
    def test_never_uses_dvfs(self, cfg16, model16):
        sched, sim = simulate(
            cfg16, model16, [Task(0, PARSEC["x264"], 4, seed=1)]
        )
        sim.run(max_time_s=0.02)
        decision = sched.decide(0.02)
        assert np.all(decision.frequencies == cfg16.dvfs.f_max_hz)

    def test_completes_workload(self, cfg16, model16):
        _, sim = simulate(cfg16, model16, [Task(0, PARSEC["dedup"], 4, seed=1)])
        result = sim.run(max_time_s=2.0)
        assert len(result.tasks) == 1

    def test_rotation_produces_migrations_under_heat(self, cfg16, model16):
        _, sim = simulate(
            cfg16, model16, [Task(0, PARSEC["blackscholes"], 2, seed=1)]
        )
        result = sim.run(max_time_s=1.0)
        assert result.migration_count > 0

    def test_cold_workload_stops_rotating(self, cfg16, model16):
        """Canneal is thermally trivial: after the estimates settle, the
        rotation must stop (Algorithm 2 lines 23-27) and stay stopped."""
        sched, sim = simulate(
            cfg16, model16, [Task(0, PARSEC["canneal"], 2, seed=1, work_scale=2.0)]
        )
        sim.run(max_time_s=2.0)
        assert sched.hotpotato.tau_s is None

    def test_thermal_safety_motivational(self, cfg16, model16):
        _, sim = simulate(
            cfg16, model16, [Task(0, PARSEC["blackscholes"], 2, seed=1)]
        )
        result = sim.run(max_time_s=1.0)
        # small transient overshoot is backstopped by DTM; no runaway
        assert result.peak_temperature_c < cfg16.thermal.dtm_threshold_c + 1.5

    def test_queueing_in_open_system(self, cfg16, model16):
        tasks = [
            Task(0, PARSEC["canneal"], 8, seed=1),
            Task(1, PARSEC["canneal"], 8, seed=2),
            Task(2, PARSEC["canneal"], 8, seed=3),  # must queue
        ]
        _, sim = simulate(cfg16, model16, tasks)
        result = sim.run(max_time_s=3.0)
        assert len(result.tasks) == 3
        # the queued task finished last
        assert result.tasks[2].completion_s >= result.tasks[0].completion_s


class TestAdaptivity:
    def test_conservative_estimates_relax(self, cfg16, model16):
        """Arrival estimates are the profile's peak power; after the 10 ms
        history builds, HotPotato's estimates drop to duty-cycled reality."""
        sched, sim = simulate(
            cfg16, model16, [Task(0, PARSEC["blackscholes"], 2, seed=1)]
        )
        sim.run(max_time_s=0.04)
        hotpotato = sched.hotpotato
        est = [hotpotato.thread_info(t).power_w for t in hotpotato.thread_ids()]
        peak_est = sched.ctx.power_model.max_core_power_w(
            PARSEC["blackscholes"].p_dyn_ref_w
        )
        # at any instant, one thread works and one waits: at least one
        # estimate is far below the peak-power prior
        assert min(est) < 0.7 * peak_est

    def test_preferred_interval_follows_tau(self, cfg16, model16):
        sched, sim = simulate(
            cfg16, model16, [Task(0, PARSEC["blackscholes"], 2, seed=1)]
        )
        sim.run(max_time_s=0.01)
        assert sched.preferred_interval_s() == sched.hotpotato.tau_s


class TestAlgorithmOneAccounting:
    def test_every_peak_batch_call_is_a_counted_fallback(self, cfg16, model16):
        """On the engine path HotPotato runs Algorithm 1 only where the ring
        tables cannot settle a choice, and counts every such fallback."""
        mix = [
            ("blackscholes", 4, 0.0),
            ("x264", 4, 0.0),
            ("canneal", 4, 0.005),
            ("swaptions", 4, 0.01),
            ("bodytrack", 4, 0.02),
            ("dedup", 2, 0.03),
        ]
        tasks = [
            Task(i, PARSEC[name], n, seed=i, arrival_time_s=arrival)
            for i, (name, n, arrival) in enumerate(mix)
        ]
        sched, sim = simulate(cfg16, model16, tasks)
        sim.run(max_time_s=0.15)
        hp = sched.hotpotato
        calls = hp.calculator.cache_stats()["batch.calls"]
        counted = (
            hp.screen_slot_exact + hp.screen_incumbent_exact + hp.screen_overflow_exact
        )
        assert calls == counted
        assert hp.screen_slot > 0 and hp.screen_slot_exact > 0
