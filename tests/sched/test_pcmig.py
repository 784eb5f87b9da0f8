"""PCMig: PCGov plus predictive asynchronous migrations."""

import numpy as np
import pytest

from repro import config
from repro.sched.pcmig import PCMigScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task


class TestPredictiveMigration:
    def test_migrates_away_from_predicted_hotspot(self, cfg16, model16):
        """Running the motivational hot workload, PCMig must move threads
        off cores predicted to cross the threshold."""
        sched = PCMigScheduler()
        sim = IntervalSimulator(
            cfg16,
            sched,
            [Task(0, PARSEC["blackscholes"], 2, seed=1)],
            ctx=SimContext(cfg16, model16),
            warm_start_uniform_power_w=3.2,  # hot recent past
        )
        result = sim.run(max_time_s=1.0)
        assert result.peak_temperature_c <= cfg16.thermal.dtm_threshold_c + 1.0

    def test_no_migration_without_thermal_pressure(self, cfg16, model16):
        sched = PCMigScheduler()
        sim = IntervalSimulator(
            cfg16,
            sched,
            [Task(0, PARSEC["canneal"], 2, seed=1)],
            ctx=SimContext(cfg16, model16),
        )
        result = sim.run(max_time_s=1.0)
        assert result.migration_count == 0
        assert sched.migration_decisions == 0

    def test_budget_recomputed_only_when_the_mapping_changes(
        self, cfg16, model16, monkeypatch
    ):
        """The TSP budget depends only on the occupied-core set: with no
        migration, only the task's admission and exit recompute it, not
        every interval's migration check."""
        sched = PCMigScheduler()
        ctx = SimContext(cfg16, model16)
        calls = []
        budget = ctx.tsp.budget_for_mapping
        monkeypatch.setattr(
            ctx.tsp,
            "budget_for_mapping",
            lambda active: calls.append(1) or budget(active),
        )
        sim = IntervalSimulator(
            cfg16, sched, [Task(0, PARSEC["canneal"], 2, seed=1)], ctx=ctx
        )
        result = sim.run(max_time_s=0.2)
        assert sched.migration_decisions == 0
        assert result.scheduler_invocations > 100
        assert len(calls) == 1  # the admission; the task is still running

    def test_migration_cap_per_interval(self):
        assert PCMigScheduler(guard_band_c=2.0).guard_band_c == 2.0

    def test_stays_thermally_safe_on_full_load(self, cfg64, model64):
        """The paper's baseline property: PCMig never lets the chip cross
        the DTM threshold on the homogeneous full-load campaign."""
        from repro.workload.generator import homogeneous_fill, materialize

        tasks = materialize(homogeneous_fill("swaptions", 64, seed=3))
        sim = IntervalSimulator(
            cfg64,
            PCMigScheduler(),
            tasks,
            ctx=SimContext(cfg64, model64),
        )
        result = sim.run(max_time_s=3.0)
        assert result.dtm_triggers == 0
        assert result.peak_temperature_c < cfg64.thermal.dtm_threshold_c
