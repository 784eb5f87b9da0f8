#!/usr/bin/env python3
"""Observability tour: trace a run, read its metrics, profile its phases.

Runs the paper's 16-core motivational platform under HotPotato with every
observability component enabled (``docs/observability.md``), then shows:

1. the structured **trace** — per-interval placement/power/temperature
   records, rotation-epoch boundaries and simulation events — exported to
   JSONL and reloaded losslessly;
2. the **metrics snapshot** — engine counters (migrations per AMD ring),
   thermal-solver cache hit rates, scheduler-internal gauges, decision
   latency — exported to CSV/JSON;
3. the **profiling summary** — wall-clock cost of the scheduler-decision,
   power-map-build and thermal-step phases of the hot loop;
4. the **analysis layer** — derived statistics, the analytic ``T_peak``
   bound of Algorithm 1, the violation detectors (a ``check``) and the
   derived statistics as OpenMetrics (what ``python -m repro.obs export``
   writes).

Run:  python examples/observability_tour.py
"""

import tempfile
from pathlib import Path

from repro import config
from repro.experiments.reporting import (
    render_metrics_table,
    render_profile_table,
    render_violations_table,
)
from repro.obs import (
    BoundDetector,
    PowerMapDetector,
    TraceRecorder,
    analysis_to_flat,
    analyze,
    default_detectors,
    run_detectors,
    to_openmetrics,
)
from repro.sched import HotPotatoScheduler
from repro.sim import IntervalSimulator
from repro.workload import PARSEC, Task


def main() -> None:
    # 1. enable observability through configuration (all off by default)
    cfg = config.motivational().with_observability(
        trace=True, metrics=True, profiling=True
    )
    tasks = [
        Task(0, PARSEC["blackscholes"], n_threads=2, seed=1),
        Task(1, PARSEC["swaptions"], n_threads=2, seed=2, arrival_time_s=5e-3),
    ]
    simulator = IntervalSimulator(cfg, HotPotatoScheduler(), tasks)
    result = simulator.run(max_time_s=0.5)
    observer = simulator.observer

    print(result.summary())

    # 2. the structured trace: typed records, lossless JSONL round-trip
    trace = observer.trace
    print(
        f"\ntrace: {len(trace)} records "
        f"({len(trace.intervals())} intervals, {len(trace.epochs())} epoch "
        f"boundaries, {len(trace.events())} events)"
    )
    hottest = max(
        trace.intervals(), key=lambda r: max(r.temps_c)
    )
    print(
        f"hottest interval starts at {hottest.time_s * 1e3:.2f} ms: "
        f"{max(hottest.temps_c):.2f} C, "
        f"{len(hottest.placements)} threads placed, "
        f"DTM throttling cores {list(hottest.dtm_throttled) or 'none'}"
    )
    for boundary in trace.epochs()[:3]:
        print(
            f"rotation epoch {boundary.epoch} begins at "
            f"{boundary.time_s * 1e3:.2f} ms (tau = {boundary.tau_s * 1e3:.2f} ms)"
        )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        trace.write_jsonl(path)
        reloaded = TraceRecorder.read_jsonl(path)
        print(
            f"JSONL round-trip: wrote {path.stat().st_size} bytes, "
            f"reload equals original: {reloaded == trace}"
        )

    # 3. the metrics snapshot (also stored in result.metrics_snapshot)
    snapshot = result.metrics_snapshot
    ring_migrations = {
        key.rsplit(".", 1)[-1]: int(value)
        for key, value in snapshot.items()
        if key.startswith("engine.migrations.to_ring.")
    }
    print(f"\nmigrations per destination AMD ring: {ring_migrations}")
    # the eigenbasis-resident engine caches exp(lambda tau) per step size;
    # the dense exp(C tau) cache only fills when step() is called directly
    hits = snapshot["thermal.decay_cache.hits"]
    misses = snapshot["thermal.decay_cache.misses"]
    total = hits + misses
    rate = f"{hits / total:.1%}" if total else "n/a"
    print(
        f"thermal exp(lambda tau) decay cache: {int(hits)} hits / "
        f"{int(misses)} misses ({rate} hit rate)"
    )
    print(
        f"scheduler decision latency: mean "
        f"{snapshot['scheduler.decision_latency_s.mean'] * 1e6:.1f} us over "
        f"{int(snapshot['scheduler.decision_latency_s.count'])} decisions"
    )
    print()
    print(
        render_metrics_table(
            {
                key: value
                for key, value in snapshot.items()
                if key.startswith(("engine.", "sched."))
            },
            title="engine + scheduler metrics",
        )
    )
    print(f"\nCSV export starts:\n{observer.metrics.to_csv().splitlines()[1]}")

    # 4. the profiling summary (wall-clock; off by default)
    print()
    print(render_profile_table(result.profile, title="hot-loop phase profile"))

    # 5. the analysis layer: derived statistics + the Algorithm 1 bound
    # (the simulator context already holds the platform's rings and the
    # PeakTemperatureCalculator -- the CLI builds the same from --config)
    calculator = simulator.ctx.calculator
    analysis = analyze(
        trace,
        limit_c=cfg.thermal.dtm_threshold_c,
        ring_of=simulator.ctx.rings.ring_of,
        peak_fn=lambda seq, tau: calculator.peak(seq, tau, within_epoch_samples=4),
    )
    thermal = analysis.thermal
    print(
        f"\nanalysis: peak {thermal.peak_c:.2f} C on core {thermal.peak_core}, "
        f"DTM duty cycle {analysis.dtm.duty_cycle:.2%}, "
        f"{analysis.migration.count} migrations "
        f"(per destination ring: {analysis.migration.per_dst_ring})"
    )
    if analysis.bound is not None:
        bound = analysis.bound
        print(
            f"Algorithm 1 bound: analytic T_peak {bound.analytic_peak_c:.2f} C "
            f"vs observed {bound.observed_peak_c:.2f} C -> "
            f"{'EXCEEDED' if bound.exceeded else 'held'} "
            f"(margin {bound.margin_c:+.2f} C, delta={bound.delta})"
        )

    # 6. a `check` (what `python -m repro.obs check` does) + OpenMetrics
    detectors = default_detectors(dtm_threshold_c=cfg.thermal.dtm_threshold_c)
    detectors.append(PowerMapDetector(cfg.thermal.idle_power_w))
    if analysis.bound is not None:
        detectors.append(BoundDetector(analysis.bound.analytic_peak_c))
    violations = run_detectors(trace, detectors)
    print()
    print(render_violations_table(violations, title="check"))
    exposition = to_openmetrics(analysis_to_flat(analysis)).splitlines()
    print(f"\nOpenMetrics export ({len(exposition)} lines) starts:")
    print("\n".join(exposition[:6]))


if __name__ == "__main__":
    main()
