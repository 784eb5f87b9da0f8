#!/usr/bin/env python3
"""Anatomy of one HotPotato run: events, time stacks, and a die heat map.

Runs a small mixed workload under HotPotato with full observability on and
walks through what the simulator recorded:

- the structured event log (arrivals, migrations, DTM, completions),
- per-thread time stacks (compute / stall / migration / wait / queued),
- the die heat map at the hottest recorded instant,
- the result serialized to JSON and read back (repro.io).

Run:  python examples/anatomy_of_a_run.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import config
from repro.analysis import hotspot_report, render_heatmap
from repro.io import load_result, save_result
from repro.obs import Observer, TraceRecorder
from repro.sched import HotPotatoScheduler
from repro.sim import IntervalSimulator, TaskCompleted, ThreadMigrated
from repro.workload import PARSEC, Task


def main() -> None:
    cfg = config.motivational()
    tasks = [
        Task(0, PARSEC["blackscholes"], 2, arrival_time_s=0.0, seed=1),
        Task(1, PARSEC["canneal"], 4, arrival_time_s=0.01, seed=2),
    ]
    recorder = TraceRecorder()
    sim = IntervalSimulator(
        cfg, HotPotatoScheduler(), tasks, observer=Observer(trace=recorder)
    )
    result = sim.run(max_time_s=2.0)

    print("=== summary ===")
    print(result.summary())

    print("\n=== first events ===")
    print(sim.events.render(limit=8))
    migrations = sim.events.count(ThreadMigrated)
    print(f"... {migrations} migrations total")
    last = sim.events.last(TaskCompleted)
    print(
        f"last completion: task {last.task_id} ({last.benchmark}) "
        f"after {last.response_time_s * 1e3:.1f} ms"
    )

    print("\n=== per-thread time stacks ===")
    for thread_id, stack in sorted(result.time_breakdown.items()):
        print(f"{thread_id}: {stack.render()}")
    aggregate = result.aggregate_breakdown()
    print(f"chip:  {aggregate.render()}")

    print("\n=== die heat map at the hottest instant ===")
    temps = np.array([record.temps_c for record in recorder.intervals()])
    snapshot = temps[int(np.argmax(np.max(temps, axis=1)))]
    print(
        render_heatmap(
            snapshot,
            cfg.mesh_width,
            cfg.mesh_height,
            threshold_c=cfg.thermal.dtm_threshold_c,
            show_values=True,
        )
    )
    print(hotspot_report(snapshot, cfg.mesh_width, cfg.mesh_height))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        save_result(result, path)
        restored = load_result(path)
        print(
            f"\nserialized to JSON and back: makespan "
            f"{restored.makespan_s * 1e3:.1f} ms, "
            f"peak {restored.peak_temperature_c:.2f} C "
            f"({path.stat().st_size // 1024} KiB on disk)"
        )


if __name__ == "__main__":
    main()
