"""Thermal trace statistics and the trace plot.

The engine samples the core temperatures at t = 0 and at the end of every
interval.  ``SimulationResult.peak_temperature_c`` is the hottest core
over all samples; ``time_above_dtm_s`` holds each sample until the next
one and adds up the gaps that start at a sample above ``T_DTM``.  An obs
trace recorder sees the same samples (each interval record ends at
``time_s + dt_s``), so both numbers are recomputed from it here.
"""

import numpy as np
import pytest

from repro.experiments.reporting import render_trace
from repro.obs import Observer, TraceRecorder
from repro.sched import PeakFrequencyScheduler
from repro.sim import IntervalSimulator, SimContext
from repro.workload import PARSEC, Task


def _run(cfg, model, tasks, **kwargs):
    """Run with a recorder; return the result and the sampled series."""
    recorder = TraceRecorder()
    sim = IntervalSimulator(
        cfg,
        PeakFrequencyScheduler(),
        tasks,
        ctx=SimContext(cfg, model),
        observer=Observer(trace=recorder),
        **kwargs,
    )
    times = [0.0]
    temps = [sim.thermal_state.core_temperatures()]
    result = sim.run(max_time_s=1.0)
    for record in recorder.intervals():
        times.append(record.time_s + record.dt_s)
        temps.append(record.temps_c)
    return result, np.array(times), np.array(temps)


@pytest.fixture(scope="module")
def hot_run(cfg16, model16):
    """Unmanaged 2-thread blackscholes: crosses T_DTM, then an idle gap
    until a second task arrives."""
    tasks = [
        Task(0, PARSEC["blackscholes"], 2, seed=1),
        Task(1, PARSEC["blackscholes"], 2, arrival_time_s=0.15, seed=2),
    ]
    return _run(
        cfg16, model16, tasks, dtm_enabled=False, warm_start_uniform_power_w=2.8
    )


@pytest.fixture()
def trace():
    times = np.array([0.0, 1e-3, 2e-3, 3e-3])
    temps = np.array(
        [
            [45.0, 45.0, 45.0, 45.0],
            [50.0, 46.0, 47.0, 45.0],
            [72.0, 48.0, 47.5, 45.5],
            [68.0, 50.0, 48.0, 46.0],
        ]
    )
    return times, temps


class TestStatistics:
    def test_peak(self, hot_run):
        result, _, temps = hot_run
        assert result.peak_temperature_c == np.max(temps)

    def test_exceeds(self, hot_run, cfg16):
        result, _, _ = hot_run
        assert result.peak_temperature_c > cfg16.thermal.dtm_threshold_c

    def test_time_above(self, hot_run, cfg16):
        result, times, temps = hot_run
        hot = np.max(temps, axis=1) > cfg16.thermal.dtm_threshold_c
        assert hot.sum() >= 2
        # sample-and-hold: a hot sample counts until the next sample
        expected = np.sum(np.diff(times)[hot[:-1]])
        assert result.time_above_dtm_s == expected > 0.0

    def test_time_above_none(self, cfg16, model16):
        result, _, temps = _run(
            cfg16, model16, [Task(0, PARSEC["canneal"], 2, seed=1)]
        )
        assert np.max(temps) < cfg16.thermal.dtm_threshold_c
        assert result.time_above_dtm_s == 0.0


class TestRendering:
    def test_render_contains_legend(self, trace):
        art = render_trace(*trace, core_ids=[0, 1], threshold_c=70.0)
        assert "0=core 0" in art
        assert "1=core 1" in art

    def test_render_defaults_to_hottest_core(self, trace):
        assert render_trace(*trace).endswith("0=core 0")

    def test_render_empty(self):
        assert "empty" in render_trace([], np.empty((0, 2)))

    def test_render_draws_threshold(self, trace):
        art = render_trace(*trace, threshold_c=70.0)
        plot_rows = [line.split("|", 1)[1] for line in art.splitlines() if "|" in line]
        assert any("-" in row for row in plot_rows)
