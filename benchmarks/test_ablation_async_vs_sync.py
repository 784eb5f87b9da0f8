"""Ablation: synchronous proactive vs asynchronous on-demand migration.

The paper's framing (Section I): traditional thermal-aware schedulers use
asynchronous on-demand migrations "often as a measure of last resort";
HotPotato replaces them with synchronous proactive rotation.  This ablation
isolates the migration *policy* (both schedulers pin frequency at f_max and
rely on migration only):

- synchronous rotation keeps the chip thermally safe proactively;
- reactive migration lets heat accumulate first, fires under pressure, and
  leans on DTM — slower and hotter on hot workloads.
"""

import pytest

from repro.sched import AsyncMigrationScheduler, HotPotatoScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.generator import homogeneous_fill, materialize


@pytest.fixture(scope="module")
def outcomes(ctx64):
    results = {}
    for scheduler_cls in (AsyncMigrationScheduler, HotPotatoScheduler):
        tasks = materialize(
            homogeneous_fill("blackscholes", 64, seed=42, work_scale=1.5)
        )
        sim = IntervalSimulator(
            ctx64.config,
            scheduler_cls(),
            tasks,
            ctx=SimContext(ctx64.config, ctx64.thermal_model),
        )
        results[scheduler_cls.name] = sim.run(max_time_s=4.0)
    return results


def test_async_vs_sync_regeneration(benchmark, ctx64):
    def run():
        tasks = materialize(
            homogeneous_fill("blackscholes", 64, seed=42, work_scale=1.0)
        )
        sim = IntervalSimulator(
            ctx64.config,
            AsyncMigrationScheduler(),
            tasks,
            ctx=SimContext(ctx64.config, ctx64.thermal_model),
        )
        return sim.run(max_time_s=3.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.tasks


class TestShape:
    def test_synchronous_is_faster(self, outcomes):
        """The paper's core claim at the migration-policy level."""
        assert (
            outcomes["hotpotato"].makespan_s
            < outcomes["async-migration"].makespan_s
        )

    def test_reactive_leans_on_dtm(self, outcomes):
        """On-demand migration cannot prevent the violations it reacts to:
        DTM fires far more often than under proactive rotation."""
        assert (
            outcomes["async-migration"].dtm_triggers
            > outcomes["hotpotato"].dtm_triggers
        )

    def test_both_complete(self, outcomes):
        for result in outcomes.values():
            assert len(result.tasks) == len(
                materialize(homogeneous_fill("blackscholes", 64, seed=42))
            )
