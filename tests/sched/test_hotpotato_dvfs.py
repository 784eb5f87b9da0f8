"""The unified rotation+DVFS scheduler (future-work extension)."""

import numpy as np
import pytest

from repro.sched.hotpotato_dvfs import HotPotatoDvfsScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.generator import homogeneous_fill, materialize
from repro.workload.task import Task


def simulate(cfg, model, tasks, **kwargs):
    sched = HotPotatoDvfsScheduler()
    sim = IntervalSimulator(
        cfg, sched, tasks, ctx=SimContext(cfg, model), **kwargs
    )
    return sched, sim


class TestThrottleValve:
    def test_cold_workload_never_throttles(self, cfg16, model16):
        sched, sim = simulate(
            cfg16, model16, [Task(0, PARSEC["canneal"], 2, seed=1)]
        )
        result = sim.run(max_time_s=1.0)
        assert sched._throttle_f_hz is None
        assert result.dtm_triggers == 0

    def test_overload_throttles_instead_of_dtm(self, cfg16, model16):
        """A full 16-core load of hot threads: the valve must engage and
        keep DTM silent."""
        tasks = materialize(homogeneous_fill("swaptions", 16, seed=2))
        sched, sim = simulate(cfg16, model16, tasks)
        result = sim.run(max_time_s=3.0)
        assert result.dtm_triggers == 0
        assert result.peak_temperature_c < cfg16.thermal.dtm_threshold_c

    def test_throttle_is_quantized_level(self, cfg16, model16):
        tasks = materialize(homogeneous_fill("swaptions", 16, seed=2))
        sched, sim = simulate(cfg16, model16, tasks)
        sim.run(max_time_s=0.05)
        if sched._throttle_f_hz is not None:
            levels = np.array(sched.ctx.dvfs.levels)
            assert np.any(np.isclose(levels, sched._throttle_f_hz))

    def test_power_scale_monotone(self, cfg16, model16):
        sched, _ = simulate(cfg16, model16, [])
        scales = [sched._power_scale(f) for f in sched.ctx.dvfs.levels]
        assert scales == sorted(scales)
        assert scales[-1] == pytest.approx(1.0)

    def test_fmax_referred_estimates(self, cfg16, model16):
        """With a throttle active, the measurement hook must scale the
        observed power back up to f_max-equivalent terms."""
        sched, sim = simulate(
            cfg16, model16, [Task(0, PARSEC["blackscholes"], 2, seed=1)]
        )
        sim.run(max_time_s=0.05)
        sched._throttle_f_hz = 2.0e9
        window = sched.ctx.power_window()
        raw = window.average_w[sched._thread_slots]
        referred = sched._measured_power(window)
        assert np.all(referred >= raw)
        # a dynamic share above idle is scaled up strictly
        busy = raw > sched.ctx.power_model.idle_power_w()
        assert busy.any() and np.all(referred[busy] > raw[busy])
