#!/usr/bin/env python3
"""Quickstart: schedule a workload with HotPotato and inspect the result.

Builds the paper's 16-core motivational platform (Fig. 1), runs a
two-threaded blackscholes instance under the HotPotato scheduler, and prints
the headline metrics plus a thermal trace — everything through the public
API, in under a minute.

Run:  python examples/quickstart.py
"""

from repro import config
from repro.arch import AmdRings, Mesh
from repro.experiments.reporting import render_trace
from repro.obs import Observer, TraceRecorder
from repro.sched import HotPotatoScheduler
from repro.sim import IntervalSimulator
from repro.workload import PARSEC, Task


def main() -> None:
    cfg = config.motivational()  # the paper's 16-core platform (Figs. 1-2)

    # 1. the architecture: a 4x4 mesh decomposes into concentric AMD rings
    rings = AmdRings(Mesh(cfg.mesh_width, cfg.mesh_height))
    print("AMD rings of the 16-core chip (ring index per core):")
    print(rings.render_ascii())
    print(
        f"-> {rings.n_rings} rings; ring 0 (cores {list(rings.ring(0))}) "
        "is the fastest and hottest\n"
    )

    # 2. the workload: a 2-thread blackscholes instance (master/slave phases)
    task = Task(0, PARSEC["blackscholes"], n_threads=2, seed=1)
    print(
        f"workload: {task.profile.name} x{task.n_threads}, "
        f"{task.total_instructions() / 1e6:.0f} M instructions, "
        f"{task.n_phases} phases\n"
    )

    # 3. simulate under HotPotato (synchronous thread rotation, no DVFS);
    #    the trace recorder keeps every interval's core temperatures
    recorder = TraceRecorder()
    simulator = IntervalSimulator(
        cfg, HotPotatoScheduler(), [task], observer=Observer(trace=recorder)
    )
    times = [0.0]
    temps = [simulator.thermal_state.core_temperatures()]
    result = simulator.run(max_time_s=1.0)
    for record in recorder.intervals():
        times.append(record.time_s + record.dt_s)
        temps.append(record.temps_c)

    print(result.summary())
    print()
    print(
        f"thermal threshold: {cfg.thermal.dtm_threshold_c:.0f} C -> "
        f"exceeded: {result.peak_temperature_c > cfg.thermal.dtm_threshold_c} "
        f"({result.time_above_dtm_s * 1e3:.1f} ms above)"
    )
    print("\nthermal trace of the two hottest centre cores:")
    print(
        render_trace(
            times,
            temps,
            core_ids=[5, 10],
            threshold_c=cfg.thermal.dtm_threshold_c,
            height=12,
        )
    )


if __name__ == "__main__":
    main()
