"""Analysis utilities: heat maps and scheduler comparisons."""

import numpy as np
import pytest

from repro.analysis import (
    PairedOutcome,
    hotspot_report,
    render_heatmap,
    run_pair,
    seed_averaged_speedup,
)


class TestHeatmap:
    def test_ramp_rendering(self):
        temps = np.linspace(45, 80, 16)
        art = render_heatmap(temps, 4, 4)
        lines = art.splitlines()
        assert len(lines) == 5  # 4 rows + legend
        assert lines[0][0] == " "  # coldest glyph
        assert "@" in lines[3]  # hottest glyph

    def test_threshold_marker(self):
        temps = np.full(16, 50.0)
        temps[5] = 75.0
        art = render_heatmap(temps, 4, 4, threshold_c=70.0)
        assert "!" in art.splitlines()[1]

    def test_values_mode(self):
        temps = np.full(4, 55.5)
        art = render_heatmap(temps, 2, 2, show_values=True)
        assert " 55.5" in art

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros(5), 2, 2)

    def test_flat_field_does_not_crash(self):
        art = render_heatmap(np.full(4, 45.0), 2, 2)
        assert "45.0" in art

    def test_hotspot_report(self):
        temps = np.full(16, 50.0)
        temps[9] = 80.0
        temps[3] = 70.0
        report = hotspot_report(temps, 4, 4, top_n=2)
        lines = report.splitlines()
        assert "core 9" in lines[0]
        assert "row 2, col 1" in lines[0]
        assert "core 3" in lines[1]

    def test_hotspot_report_validation(self):
        with pytest.raises(ValueError):
            hotspot_report(np.zeros(16), 4, 4, top_n=0)
        with pytest.raises(ValueError):
            hotspot_report(np.zeros(15), 4, 4)


class TestComparisons:
    def test_run_pair(self, cfg16, model16):
        from repro.sched import HotPotatoScheduler, PCMigScheduler
        from repro.sim import SimContext
        from repro.workload import homogeneous_fill

        outcome = run_pair(
            cfg16,
            PCMigScheduler,
            HotPotatoScheduler,
            homogeneous_fill("canneal", 16, seed=1),
            label="canneal",
            shared_ctx=SimContext(cfg16, model16),
            max_time_s=3.0,
        )
        assert isinstance(outcome, PairedOutcome)
        assert outcome.label == "canneal"
        assert abs(outcome.makespan_speedup_pct) < 20.0
        assert outcome.baseline.tasks and outcome.candidate.tasks

    def test_seed_averaged(self, cfg16, model16):
        from repro.sched import PCMigScheduler, PeakFrequencyScheduler
        from repro.sim import SimContext
        from repro.workload import homogeneous_fill

        stats = seed_averaged_speedup(
            cfg16,
            PCMigScheduler,
            PeakFrequencyScheduler,
            lambda seed: homogeneous_fill("canneal", 16, seed=seed),
            seeds=(1, 2),
            shared_ctx=SimContext(cfg16, model16),
            max_time_s=3.0,
        )
        assert set(stats) == {"mean", "std", "min", "max"}
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_metric_validation(self, cfg16):
        from repro.sched import PCMigScheduler

        with pytest.raises(ValueError):
            seed_averaged_speedup(
                cfg16,
                PCMigScheduler,
                PCMigScheduler,
                lambda seed: [],
                seeds=(1,),
                metric="bogus",
            )
