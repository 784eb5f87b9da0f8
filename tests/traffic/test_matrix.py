"""The {traffic} x {scheduler} scenario matrix, end to end (tier-1-fast).

All 12 cells of {poisson, diurnal, flash-crowd, trace} x {hotpotato,
pcmig, qos} run on the 4x4 motivational platform (the smallest one whose
core count fits every thread-count the synthetic mix can draw) with
light load.  Every cell must stay thermally safe (peak at most ``T_DTM``
plus the DTM hysteresis slack), raise no QoS deadline violations, and —
for the QoS scheduler — park nothing.  A separate overload run proves
the QoS scheduler *does* shed (parked peak > 0) exactly when queue
pressure crosses the overload threshold, and that the shed tasks
surface as deadline violations.
"""

import pytest

from repro.config import small_test
from repro.experiments import fig4b
from repro.obs import (
    MetricsRegistry,
    Observer,
    TraceRecorder,
    default_detectors,
    run_detectors,
)
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.traffic import write_arrival_trace
from repro.workload.generator import TaskSpec, materialize
from repro.workload.benchmarks import parsec_profile
from repro.workload.qos import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CRITICAL,
    QosSpec,
)

#: generous relative deadline under light load — nothing should miss it
LIGHT_DEADLINE_S = 30.0

#: (traffic, scheduler) -> peak_temperature_c as ``float.hex()``, recorded
#: from a per-core trace of every sample; no cell crosses T_DTM
MATRIX_PEAKS = {
    ("poisson", "hotpotato"): "0x1.c19eab83b2caep+5",
    ("poisson", "pcmig"): "0x1.b281c3d033f9ep+5",
    ("poisson", "qos"): "0x1.c19eab83b2caep+5",
    ("diurnal", "hotpotato"): "0x1.c89e1a541dee1p+5",
    ("diurnal", "pcmig"): "0x1.b71234c35fb06p+5",
    ("diurnal", "qos"): "0x1.c30d844d4eae0p+5",
    ("flash-crowd", "hotpotato"): "0x1.d5933e9c1bd8dp+5",
    ("flash-crowd", "pcmig"): "0x1.b36a2918a7445p+5",
    ("flash-crowd", "qos"): "0x1.d42b1d42edcc8p+5",
    ("trace", "hotpotato"): "0x1.b6e5cffbfcfe7p+5",
    ("trace", "pcmig"): "0x1.b89003437ac13p+5",
    ("trace", "qos"): "0x1.b6e5ce935b233p+5",
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
                qos=QosSpec(
                    deadline_s=LIGHT_DEADLINE_S,
                    priority=(PRIORITY_BEST_EFFORT, 1, PRIORITY_CRITICAL)[
                        index % 3
                    ],
                ),
            )
        )
    return specs


@pytest.fixture(scope="module")
def matrix_runs(tmp_path_factory, cfg16, model16):
    """All 12 cells, each with a full observability bundle attached."""
    cfg = cfg16
    trace_path = tmp_path_factory.mktemp("traffic") / "light.jsonl"
    from repro.traffic import PoissonProcess, assign_arrivals

    write_arrival_trace(
        trace_path,
        assign_arrivals(_light_specs(), PoissonProcess(8.0), seed=3),
    )
    runs = {}
    for traffic in fig4b.MATRIX_TRAFFICS:
        for scheduler in fig4b.MATRIX_SCHEDULERS:
            specs = fig4b._cell_specs(
                arrival_rate_per_s=8.0,
                n_tasks=6,
                seed=5,
                work_scale=0.25,
                max_time_s=4.0,
                traffic=traffic,
                trace_path=trace_path,
                deadline_s=LIGHT_DEADLINE_S,
            )
            observer = Observer(
                trace=TraceRecorder(), metrics=MetricsRegistry()
            )
            sim = IntervalSimulator(
                cfg,
                fig4b._SCHEDULERS[scheduler](),
                materialize(specs),
                ctx=SimContext(cfg, model16),
                observer=observer,
            )
            result = sim.run(max_time_s=4.0)
            runs[(traffic, scheduler)] = (result, observer.trace)
    return cfg, runs


class TestScenarioMatrix:
    def test_all_twelve_cells_ran(self, matrix_runs):
        _, runs = matrix_runs
        assert len(runs) == 12
        assert set(runs) == {
            (t, s)
            for t in ("poisson", "diurnal", "flash-crowd", "trace")
            for s in ("hotpotato", "pcmig", "qos")
        }
        for (traffic, scheduler), (result, _) in runs.items():
            assert result.tasks, f"cell {(traffic, scheduler)} completed nothing"

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

    def test_no_deadline_violations_under_light_load(self, matrix_runs):
        cfg, runs = matrix_runs
        for key, (_, trace) in runs.items():
            violations = run_detectors(
                trace,
                default_detectors(
                    dtm_threshold_c=cfg.thermal.dtm_threshold_c,
                    threshold_tolerance_c=cfg.thermal.dtm_hysteresis_c,
                ),
            )
            qos_violations = [
                v for v in violations if v.detector == "qos-deadline-violation"
            ]
            assert qos_violations == [], key
            critical = [v for v in violations if v.severity == "critical"]
            assert critical == [], key

    def test_qos_cells_park_nothing_under_light_load(self, matrix_runs):
        _, runs = matrix_runs
        for traffic in fig4b.MATRIX_TRAFFICS:
            result, _ = runs[(traffic, "qos")]
            snapshot = result.metrics_snapshot
            assert snapshot["sched.qos_parked_peak"] == 0.0, traffic
            assert snapshot["sched.qos_shed_decisions"] == 0.0, traffic

    def test_cells_are_deterministic(self, matrix_runs, model16):
        """Re-running one cell reproduces its response times exactly."""
        cfg, runs = matrix_runs
        reference, _ = runs[("diurnal", "qos")]
        ctx = SimContext(cfg, model16)
        specs = fig4b._cell_specs(
            arrival_rate_per_s=8.0,
            n_tasks=6,
            seed=5,
            work_scale=0.25,
            max_time_s=4.0,
            traffic="diurnal",
            trace_path=None,
            deadline_s=LIGHT_DEADLINE_S,
        )
        sim = IntervalSimulator(
            cfg,
            fig4b._SCHEDULERS["qos"](),
            materialize(specs),
            ctx=ctx,
        )
        again = sim.run(max_time_s=4.0)
        assert [t.response_time_s for t in again.tasks] == [
            t.response_time_s for t in reference.tasks
        ]


class TestOverloadSheds:
    def _overload_run(self, deadline_s=0.05):
        """Many simultaneous tasks: queue pressure far above the park
        threshold, a deadline nothing queued can make."""
        cfg = small_test()
        specs = []
        for index in range(10):
            specs.append(
                TaskSpec(
                    parsec_profile("blackscholes"),
                    n_threads=2,
                    seed=index,
                    work_scale=1.0,
                    qos=QosSpec(
                        deadline_s=deadline_s,
                        priority=(
                            PRIORITY_BEST_EFFORT,
                            1,
                            PRIORITY_CRITICAL,
                        )[index % 3],
                    ),
                )
            )
        observer = Observer(trace=TraceRecorder(), metrics=MetricsRegistry())
        sim = IntervalSimulator(
            cfg,
            fig4b._SCHEDULERS["qos"](),
            materialize(specs),
            ctx=SimContext(cfg),
            observer=observer,
        )
        result = sim.run(max_time_s=0.2)
        return cfg, result, observer.trace

    def test_overload_parks_and_sheds(self):
        _, result, _ = self._overload_run()
        snapshot = result.metrics_snapshot
        assert snapshot["sched.qos_parked_peak"] > 0.0
        assert snapshot["sched.qos_shed_decisions"] > 0.0
        # the mode actually left "normal" at some point
        assert snapshot["sched.qos_traffic_mode"] >= 0.0

    def test_shed_tasks_surface_as_deadline_violations(self):
        cfg, _, trace = self._overload_run()
        violations = run_detectors(
            trace,
            default_detectors(dtm_threshold_c=cfg.thermal.dtm_threshold_c),
        )
        qos_violations = [
            v for v in violations if v.detector == "qos-deadline-violation"
        ]
        assert qos_violations, "overload produced no deadline violations"

    def test_shedding_only_above_the_overload_threshold(self):
        """The same task set admitted with a sky-high overload threshold
        never parks: shedding is driven by the threshold, not the load."""
        cfg = small_test()
        specs = [
            TaskSpec(
                parsec_profile("blackscholes"),
                n_threads=2,
                seed=index,
                work_scale=1.0,
                qos=QosSpec(priority=PRIORITY_BEST_EFFORT),
            )
            for index in range(10)
        ]
        observer = Observer(metrics=MetricsRegistry())
        sim = IntervalSimulator(
            cfg,
            fig4b._SCHEDULERS["qos"](
                overload_queue_threads=10_000,
                park_queue_threads=20_000,
            ),
            materialize(specs),
            ctx=SimContext(cfg),
            observer=observer,
        )
        result = sim.run(max_time_s=0.2)
        assert result.metrics_snapshot["sched.qos_parked_peak"] == 0.0
        assert result.metrics_snapshot["sched.qos_shed_decisions"] == 0.0
