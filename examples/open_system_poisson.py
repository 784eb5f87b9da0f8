#!/usr/bin/env python3
"""Open-system scheduling under Poisson arrivals (paper Fig. 4b scenario).

A random multi-program PARSEC mix arrives at a configurable rate on the
64-core platform; HotPotato and PCMig are compared on mean response time.
Shows the open-system machinery: admission queueing when the chip is full,
response times that include queueing delay, and the load-dependent gap
between the schedulers.

Run:  python examples/open_system_poisson.py [arrival_rate_per_s]
"""

import sys

from repro import config
from repro.sched import HotPotatoScheduler, PCMigScheduler
from repro.sim import IntervalSimulator, SimContext
from repro.traffic import PoissonProcess, assign_arrivals
from repro.workload import materialize, random_mixed_workload


def main(arrival_rate_per_s: float = 60.0) -> None:
    cfg = config.table1()  # the paper's 64-core evaluation platform
    shared = SimContext(cfg)  # build/calibrate the models once

    print(
        f"platform: {cfg.n_cores} cores; 20-task random PARSEC mix arriving "
        f"at {arrival_rate_per_s:.0f} tasks/s\n"
    )

    outcomes = {}
    for scheduler in (PCMigScheduler(), HotPotatoScheduler()):
        specs = assign_arrivals(
            random_mixed_workload(20, seed=7, work_scale=2.0),
            PoissonProcess(arrival_rate_per_s),
            seed=8,
        )
        sim = IntervalSimulator(
            cfg,
            scheduler,
            materialize(specs),
            ctx=SimContext(cfg, shared.thermal_model),
        )
        result = sim.run(max_time_s=60.0)
        outcomes[scheduler.name] = result
        print(f"--- {scheduler.name} ---")
        print(result.summary())
        slowest = max(result.tasks, key=lambda t: t.response_time_s)
        print(
            f"slowest task: {slowest.benchmark} x{slowest.n_threads} "
            f"({slowest.response_time_s * 1e3:.1f} ms)\n"
        )

    pcmig = outcomes["pcmig"].mean_response_time_s
    hotpotato = outcomes["hotpotato"].mean_response_time_s
    print(
        f"HotPotato mean-response speedup over PCMig: "
        f"{(pcmig / hotpotato - 1) * 100:+.2f} % "
        "(paper: up to +12.27 % at medium load)"
    )


if __name__ == "__main__":
    rate = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    main(rate)
