"""Profiling hooks: accurate when attached, absent otherwise."""

import pytest

from repro import config
from repro.obs import Observer, PhaseProfiler
from repro.sched import HotPotatoScheduler
from repro.sim import IntervalSimulator
from repro.workload import PARSEC, Task


class TestPhaseProfiler:
    def test_begin_end_accumulates(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            token = profiler.begin("phase")
            profiler.end("phase", token)
        stat = profiler.records["phase"]
        assert stat.count == 3
        assert stat.total_s >= 0.0
        assert stat.min_s <= stat.max_s

    def test_context_manager_records(self):
        profiler = PhaseProfiler()
        with profiler.time("block"):
            pass
        assert profiler.records["block"].count == 1

    def test_summary_sorted_by_total_descending(self):
        profiler = PhaseProfiler()
        with profiler.time("outer"):
            with profiler.time("inner"):
                pass
        summary = profiler.summary()
        totals = [stat["total_s"] for stat in summary.values()]
        assert totals == sorted(totals, reverse=True)
        for stat in summary.values():
            assert set(stat) == {"count", "total_s", "mean_s", "min_s", "max_s"}

    def test_render_mentions_phases(self):
        profiler = PhaseProfiler()
        with profiler.time("thermal.step"):
            pass
        assert "thermal.step" in profiler.render()
        assert "no phases recorded" in PhaseProfiler().render()


class TestEngineProfiling:
    def _run(self, observer):
        cfg = config.motivational()
        task = Task(0, PARSEC["blackscholes"], n_threads=2, seed=1)
        sim = IntervalSimulator(
            cfg, HotPotatoScheduler(), [task], observer=observer
        )
        return sim.run(max_time_s=0.02)

    def test_enabled_profiler_covers_engine_phases(self):
        observer = Observer(profiler=PhaseProfiler())
        result = self._run(observer)
        assert set(result.profile) == {
            "scheduler.decide",
            "power_map.build",
            "thermal.step",
        }
        counts = {stat["count"] for stat in result.profile.values()}
        assert len(counts) == 1  # every phase runs once per interval
        assert all(stat["total_s"] > 0 for stat in result.profile.values())

    def test_no_observer_means_no_profile(self):
        result = self._run(None)
        assert result.profile == {}

    def test_profiling_via_config_flag(self):
        cfg = config.motivational().with_observability(profiling=True)
        task = Task(0, PARSEC["blackscholes"], n_threads=2, seed=1)
        sim = IntervalSimulator(cfg, HotPotatoScheduler(), [task])
        result = sim.run(max_time_s=0.02)
        assert sim.observer is not None
        assert sim.observer.profiler is not None
        assert result.profile  # phases recorded
        # trace/metrics were not requested, so they stay off
        assert sim.observer.trace is None
        assert sim.observer.metrics is None
