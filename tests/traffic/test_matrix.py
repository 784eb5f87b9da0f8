"""The {arrivals} x {scheduler} scenario matrix, end to end (tier-1-fast).

All 4 cells of {poisson, trace} x {hotpotato, pcmig} run fig4b's cell
workload on the 4x4 motivational platform (the smallest one whose core
count fits every thread-count the synthetic mix can draw) with light
load.  Every cell must stay thermally safe (peak at most ``T_DTM`` plus
the DTM hysteresis slack) and raise no critical violation.
"""

import pytest

from repro.experiments import fig4b
from repro.obs import (
    MetricsRegistry,
    Observer,
    TraceRecorder,
    default_detectors,
    run_detectors,
)
from repro.sched import HotPotatoScheduler, PCMigScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.traffic import (
    PoissonProcess,
    assign_arrivals,
    load_arrival_trace,
    write_arrival_trace,
)
from repro.workload.generator import TaskSpec, materialize
from repro.workload.benchmarks import parsec_profile

SCHEDULERS = {
    "hotpotato": HotPotatoScheduler,
    "pcmig": PCMigScheduler,
}

#: (arrivals, scheduler) -> peak_temperature_c as ``float.hex()``, recorded
#: from a per-core trace of every sample; no cell crosses T_DTM
MATRIX_PEAKS = {
    ("poisson", "hotpotato"): "0x1.c19eab83b2caep+5",
    ("poisson", "pcmig"): "0x1.b281c3d033f9ep+5",
    ("trace", "hotpotato"): "0x1.b6e5cffbfcfe7p+5",
    ("trace", "pcmig"): "0x1.b89003437ac13p+5",
}


def _light_specs():
    """Six tiny tasks (at most 2 threads) the 2x2 chip digests easily."""
    benchmarks = ("blackscholes", "swaptions", "canneal")
    specs = []
    for index in range(6):
        specs.append(
            TaskSpec(
                parsec_profile(benchmarks[index % len(benchmarks)]),
                n_threads=1 + index % 2,
                seed=index,
                work_scale=0.25,
            )
        )
    return specs


def _poisson_cell_specs():
    """fig4b's Poisson cell at light load."""
    return fig4b._cell_specs(
        arrival_rate_per_s=8.0, n_tasks=6, seed=5, work_scale=0.25
    )


@pytest.fixture(scope="module")
def matrix_runs(tmp_path_factory, cfg16, model16):
    """All 4 cells, each with a full observability bundle attached."""
    cfg = cfg16
    trace_path = tmp_path_factory.mktemp("traffic") / "light.jsonl"
    write_arrival_trace(
        trace_path,
        assign_arrivals(_light_specs(), PoissonProcess(8.0), seed=3),
    )
    cell_specs = {
        "poisson": _poisson_cell_specs(),
        "trace": load_arrival_trace(trace_path),
    }
    runs = {}
    for arrivals, specs in cell_specs.items():
        for scheduler in SCHEDULERS:
            observer = Observer(
                trace=TraceRecorder(), metrics=MetricsRegistry()
            )
            sim = IntervalSimulator(
                cfg,
                SCHEDULERS[scheduler](),
                materialize(specs),
                ctx=SimContext(cfg, model16),
                observer=observer,
            )
            result = sim.run(max_time_s=4.0)
            runs[(arrivals, scheduler)] = (result, observer.trace)
    return cfg, runs


class TestScenarioMatrix:
    def test_all_four_cells_ran(self, matrix_runs):
        _, runs = matrix_runs
        assert set(runs) == set(MATRIX_PEAKS)
        for key, (result, _) in runs.items():
            assert result.tasks, f"cell {key} completed nothing"

    def test_thermal_summary_pinned(self, matrix_runs):
        """Peak and time above T_DTM, bit for bit (``float.hex()``)."""
        _, runs = matrix_runs
        for key, (result, _) in runs.items():
            assert result.peak_temperature_c.hex() == MATRIX_PEAKS[key], key
            assert result.time_above_dtm_s == 0.0, key

    def test_every_cell_stays_thermally_safe(self, matrix_runs):
        cfg, runs = matrix_runs
        limit = cfg.thermal.dtm_threshold_c + cfg.thermal.dtm_hysteresis_c
        for key, (result, _) in runs.items():
            assert result.peak_temperature_c <= limit + 1e-9, key

    def test_no_critical_violations_under_light_load(self, matrix_runs):
        cfg, runs = matrix_runs
        for key, (_, trace) in runs.items():
            violations = run_detectors(
                trace,
                default_detectors(
                    dtm_threshold_c=cfg.thermal.dtm_threshold_c,
                    threshold_tolerance_c=cfg.thermal.dtm_hysteresis_c,
                ),
            )
            critical = [v for v in violations if v.severity == "critical"]
            assert critical == [], key

    def test_cells_are_deterministic(self, matrix_runs, model16):
        """Re-running one cell reproduces its response times exactly."""
        cfg, runs = matrix_runs
        reference, _ = runs[("poisson", "hotpotato")]
        sim = IntervalSimulator(
            cfg,
            HotPotatoScheduler(),
            materialize(_poisson_cell_specs()),
            ctx=SimContext(cfg, model16),
        )
        again = sim.run(max_time_s=4.0)
        assert [t.response_time_s for t in again.tasks] == [
            t.response_time_s for t in reference.tasks
        ]
