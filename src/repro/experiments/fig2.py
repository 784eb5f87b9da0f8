"""Fig. 2: thermal traces of the motivational example.

A two-threaded *blackscholes* instance on the 16-core chip under three
thermal-management regimes:

- (a) none — peak frequency, DTM disabled to expose the violation
  (paper: response 68 ms, peak ~80 degC, exceeds the 70 degC threshold);
- (b) TSP power budgeting enforced by DVFS
  (paper: response 84 ms, stays below the threshold — the slowest);
- (c) synchronous rotation of the threads over the four centre cores at a
  fixed 0.5 ms interval
  (paper: response 74 ms, below the threshold, ~8 % rotation penalty).

The shape requirements are: only (a) violates the threshold and
``response(a) < response(c) < response(b)``.

All three runs are warm-started at the steady state of a half-loaded chip
(the paper's traces start near 58 degC, not at the 45 degC ambient —
HotSniper warms its HotSpot state up before the region of interest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import units
from ..config import SystemConfig, motivational
from ..obs import Observer, TraceRecorder
from ..sched.fixed_rotation import FixedRotationScheduler
from ..sched.naive import PeakFrequencyScheduler
from ..sched.pcgov import PCGovScheduler
from ..sim.context import SimContext
from ..sim.engine import IntervalSimulator
from ..sim.metrics import SimulationResult
from ..thermal.rc_model import RCThermalModel
from ..workload.benchmarks import PARSEC
from ..workload.task import Task
from .reporting import render_table, render_trace

#: The cores the paper's Fig. 1/2c rotates over (centre ring of the 4x4).
ROTATION_CORES: Tuple[int, ...] = (5, 6, 9, 10)

#: Uniform per-core power of the warm-up steady state [W]: a half-loaded
#: recent past, placing the trace start near the paper's ~58 degC.
WARM_START_POWER_W = 2.8


@dataclass
class Fig2Result:
    """The three traces plus their headline numbers."""

    results: Dict[str, SimulationResult]
    #: variant -> (sample times [s], core temperatures [degC] per sample)
    traces: Dict[str, Tuple[np.ndarray, np.ndarray]]
    threshold_c: float

    def response_ms(self, variant: str) -> float:
        """Response time of the blackscholes instance [ms]."""
        return self.results[variant].tasks[0].response_time_s * 1e3

    def peak_c(self, variant: str) -> float:
        """Peak observed core temperature [degC]."""
        return self.results[variant].peak_temperature_c

    def violates(self, variant: str) -> bool:
        """Did any core exceed the DTM threshold?"""
        return self.results[variant].peak_temperature_c > self.threshold_c

    def render(self) -> str:
        rows = []
        paper = {"none": 68.0, "tsp-dvfs": 84.0, "rotation": 74.0}
        for variant in ("none", "tsp-dvfs", "rotation"):
            rows.append(
                (
                    variant,
                    f"{self.response_ms(variant):.1f}",
                    f"{paper[variant]:.0f}",
                    f"{self.peak_c(variant):.2f}",
                    "yes" if self.violates(variant) else "no",
                )
            )
        table = render_table(
            ["variant", "response [ms]", "paper [ms]", "peak [C]", "violates 70C"],
            rows,
            title="Fig. 2: motivational example (2-thread blackscholes, 16 cores)",
        )
        traces = []
        for variant in ("none", "tsp-dvfs", "rotation"):
            times, temps = self.traces[variant]
            traces.append(f"\n--- trace ({variant}), hottest centre cores ---")
            traces.append(
                render_trace(
                    times,
                    temps,
                    core_ids=[5, 10],
                    threshold_c=self.threshold_c,
                    height=12,
                )
            )
        return table + "\n" + "\n".join(traces)


def _task() -> Task:
    return Task(0, PARSEC["blackscholes"], 2, seed=1)


def run(
    config: SystemConfig = None,
    model: Optional[RCThermalModel] = None,
    rotation_interval_s: float = units.ms(0.5),
    max_time_s: float = 1.0,
) -> Fig2Result:
    """Regenerate Fig. 2 (all three thermal-management variants)."""
    cfg = config if config is not None else motivational()
    shared = SimContext(cfg, model)

    def simulate(scheduler, dtm_enabled=True):
        recorder = TraceRecorder()
        sim = IntervalSimulator(
            cfg,
            scheduler,
            [_task()],
            ctx=SimContext(cfg, shared.thermal_model),
            dtm_enabled=dtm_enabled,
            warm_start_uniform_power_w=WARM_START_POWER_W,
            observer=Observer(trace=recorder),
        )
        # the t = 0 sample, then each interval's end-of-interval sample
        times = [0.0]
        temps = [sim.thermal_state.core_temperatures()]
        result = sim.run(max_time_s=max_time_s)
        for record in recorder.intervals():
            times.append(record.time_s + record.dt_s)
            temps.append(record.temps_c)
        return result, (np.array(times), np.array(temps))

    runs = {
        # (a): expose the violation, as the paper's trace does
        "none": simulate(PeakFrequencyScheduler(), dtm_enabled=False),
        # (b): classic worst-case TSP enforced via DVFS
        "tsp-dvfs": simulate(PCGovScheduler(budget_mode="worst-case")),
        # (c): fixed synchronous rotation over the centre cores
        "rotation": simulate(
            FixedRotationScheduler(
                cores=ROTATION_CORES, tau_s=rotation_interval_s
            )
        ),
    }
    return Fig2Result(
        results={variant: result for variant, (result, _) in runs.items()},
        traces={variant: trace for variant, (_, trace) in runs.items()},
        threshold_c=cfg.thermal.dtm_threshold_c,
    )
