"""Section VI run-time overhead: scheduling-computation cost.

The paper measures 23.76 us per synchronous-rotation schedule computation
for a fully loaded 64-core chip (averaged over 10 000 runs), i.e. 4.75 % of
a 0.5 ms rotation epoch, running *on one of the many-core's own cores* in
optimized C++.

We measure the same two quantities for our implementation:

- one Algorithm-1 peak-temperature evaluation (the inner kernel invoked per
  candidate slot), and
- one full HotPotato scheduling decision (admission of a thread into a
  loaded chip, including candidate-slot evaluation).

Absolute times are not comparable (Python + NumPy on a host CPU vs C++ on a
simulated core), so the report also states the measured cost relative to
the 0.5 ms epoch, and the design-time/run-time complexity split the paper
claims (O(N^2) design time; O(2 delta^2 N^2) per evaluation) is exercised
by the scaling sweep in the benchmark suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .. import units
from ..arch.amd import AmdRings
from ..arch.topology import Mesh
from ..config import SystemConfig, table1
from ..core.hotpotato import HotPotato, ThreadInfo
from ..core.peak_temperature import PeakTemperatureCalculator
from ..sim.context import SimContext
from ..thermal.rc_model import RCThermalModel

#: Paper's measured cost per schedule computation.
PAPER_OVERHEAD_US = 23.76
#: The rotation epoch the overhead is quoted against.
EPOCH_S = units.ms(0.5)


@dataclass
class OverheadResult:
    """Measured scheduling-computation costs."""

    peak_eval_us: float
    admit_decision_us: float
    design_time_s: float
    n_cores: int

    @property
    def peak_eval_pct_of_epoch(self) -> float:
        """One Algorithm-1 evaluation relative to a 0.5 ms epoch."""
        return self.peak_eval_us / (EPOCH_S * 1e6) * 100.0

    def render(self) -> str:
        return "\n".join(
            [
                "Run-time overhead (Section VI)",
                f"platform: {self.n_cores} cores",
                f"design-time phase (eigendecomposition + auxiliaries): "
                f"{self.design_time_s * 1e3:.1f} ms (one-time)",
                f"Algorithm-1 peak evaluation: {self.peak_eval_us:.1f} us "
                f"({self.peak_eval_pct_of_epoch:.1f} % of a 0.5 ms epoch)",
                f"full HotPotato admission decision: "
                f"{self.admit_decision_us:.1f} us",
                f"paper (C++ on a simulated core): {PAPER_OVERHEAD_US:.2f} us "
                "per schedule computation (4.75 % of the epoch)",
            ]
        )


def run(
    config: SystemConfig = None,
    model: Optional[RCThermalModel] = None,
    n_repetitions: int = 200,
) -> OverheadResult:
    """Measure scheduling overhead on a fully loaded chip."""
    cfg = config if config is not None else table1()
    ctx = SimContext(cfg, model)

    start = time.perf_counter()
    calculator = PeakTemperatureCalculator(ctx.dynamics, cfg.thermal.ambient_c)
    rings = AmdRings(Mesh(cfg.mesh_width, cfg.mesh_height))
    design_time_s = time.perf_counter() - start

    # a representative fully loaded rotation: alternating hot/cold threads
    hp = HotPotato(
        rings,
        calculator,
        t_dtm_c=cfg.thermal.dtm_threshold_c,
        headroom_delta_c=cfg.thermal.headroom_delta_c,
        idle_power_w=cfg.thermal.idle_power_w,
        initial_tau_s=cfg.rotation_interval_s,
    )
    for i in range(cfg.n_cores - 1):
        power = 8.0 if i % 2 == 0 else 2.2
        cpi = 0.8 if i % 2 == 0 else 2.6
        hp.admit(ThreadInfo(f"t{i}", power, cpi))

    schedule = hp.schedule()
    seq = schedule.power_sequence(
        cfg.n_cores,
        {t: hp.thread_info(t).power_w for t in schedule.threads()},
        cfg.thermal.idle_power_w,
    )
    tau = hp.tau_s if hp.tau_s is not None else cfg.rotation_interval_s
    calculator.peak(seq, tau)  # warm caches
    start = time.perf_counter()
    for _ in range(n_repetitions):
        calculator.peak(seq, tau)
    peak_eval_us = (time.perf_counter() - start) / n_repetitions * 1e6

    # full admission decision: admit + remove the 64th thread repeatedly
    admit_reps = max(5, n_repetitions // 20)
    start = time.perf_counter()
    for _ in range(admit_reps):
        hp.admit(ThreadInfo("probe", 5.0, 1.2))
        hp.remove("probe")
    admit_decision_us = (time.perf_counter() - start) / (2 * admit_reps) * 1e6

    return OverheadResult(
        peak_eval_us=peak_eval_us,
        admit_decision_us=admit_decision_us,
        design_time_s=design_time_s,
        n_cores=cfg.n_cores,
    )
