"""The measured-power governor variant of PCGov (ablation option)."""

import numpy as np
import pytest

from repro.sched.pcgov import PCGovScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.generator import homogeneous_fill, materialize


class TestMeasuredGovernor:
    def test_runs_and_completes(self, cfg16, model16):
        tasks = materialize(homogeneous_fill("blackscholes", 16, seed=1))
        sim = IntervalSimulator(
            cfg16,
            PCGovScheduler(governor="measured"),
            tasks,
            ctx=SimContext(cfg16, model16),
        )
        result = sim.run(max_time_s=4.0)
        assert result.tasks

    def test_measured_at_least_as_fast_as_profile(self, cfg16, model16):
        """Budgeting observed (duty-cycled) power can only grant equal or
        higher frequencies than budgeting full-activity power."""
        makespans = {}
        for governor in ("profile", "measured"):
            tasks = materialize(homogeneous_fill("blackscholes", 16, seed=1))
            sim = IntervalSimulator(
                cfg16,
                PCGovScheduler(governor=governor),
                tasks,
                ctx=SimContext(cfg16, model16),
            )
            makespans[governor] = sim.run(max_time_s=4.0).makespan_s
        assert makespans["measured"] <= makespans["profile"] * 1.02

    def test_power_rescaling_helper(self, cfg16, model16):
        sched = PCGovScheduler(governor="measured")
        sched.attach(SimContext(cfg16, model16))
        # rescaling to the same frequency is the identity
        assert sched._power_at(5.0, 3.0e9, 3.0e9) == pytest.approx(5.0)
        # rescaling down reduces the dynamic share but not below idle
        down = sched._power_at(5.0, 4.0e9, 1.0e9)
        assert sched.ctx.power_model.idle_power_w() < down < 5.0
        # idle-only measurement stays at idle
        idle = sched.ctx.power_model.idle_power_w()
        assert sched._power_at(idle, 4.0e9, 1.0e9) == pytest.approx(idle)
