"""Fig. 4(b): heterogeneous open-system comparison across load levels.

A random 20-benchmark multi-program workload arrives following a Poisson
process; sweeping the arrival rate moves the open system from under- to
over-loaded.  The paper reports that HotPotato beats PCMig at every load,
with gains that are small when the system is under- or over-loaded (little
scope for thermal optimization / queue-dominated) and peak at ~12.27 %
under medium load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SystemConfig, table1
from ..io import result_from_dict, result_to_dict
from ..parallel import Cell, run_cells
from ..sched.hotpotato_runtime import HotPotatoScheduler
from ..sched.pcmig import PCMigScheduler
from ..sim.context import SimContext
from ..sim.engine import IntervalSimulator
from ..sim.metrics import SimulationResult
from ..thermal.rc_model import RCThermalModel
from ..traffic import PoissonProcess, assign_arrivals
from ..traffic.trace import load_arrival_trace
from ..workload.generator import (
    TaskSpec,
    materialize,
    random_mixed_workload,
)
from .reporting import render_bar_chart, render_table

_SCHEDULERS = {
    "pcmig": PCMigScheduler,
    "hotpotato": HotPotatoScheduler,
}

#: Paper's headline number for the medium-load regime.
PAPER_PEAK_SPEEDUP_PCT = 12.27

#: Default arrival-rate sweep [tasks/s]: under-loaded to far over-loaded
#: around the chip's service capacity (~90 tasks/s for the default mix).
DEFAULT_ARRIVAL_RATES = (2.0, 10.0, 30.0, 60.0, 90.0, 150.0, 400.0)


@dataclass
class LoadPoint:
    """One arrival rate's outcome."""

    arrival_rate_per_s: float
    hotpotato: SimulationResult
    pcmig: SimulationResult

    @property
    def speedup_pct(self) -> float:
        """Mean-response-time improvement of HotPotato over PCMig."""
        return (
            self.pcmig.mean_response_time_s / self.hotpotato.mean_response_time_s
            - 1.0
        ) * 100.0


@dataclass
class Fig4bResult:
    """The full load sweep."""

    points: Tuple[LoadPoint, ...]

    @property
    def peak_speedup_pct(self) -> float:
        """Best observed speedup (paper: ~12.27 % at medium load)."""
        return max(p.speedup_pct for p in self.points)

    def speedup_by_rate(self) -> Dict[float, float]:
        """Arrival rate -> speedup percentage."""
        return {p.arrival_rate_per_s: p.speedup_pct for p in self.points}

    def is_unimodal_shape(self, tolerance_pct: float = 1.0) -> bool:
        """Speedups rise to an interior maximum then fall (within
        ``tolerance_pct`` of noise) — the paper's qualitative shape."""
        speedups = [p.speedup_pct for p in self.points]
        best = int(np.argmax(speedups))
        rising = all(
            speedups[i + 1] >= speedups[i] - tolerance_pct for i in range(best)
        )
        falling = all(
            speedups[i + 1] <= speedups[i] + tolerance_pct
            for i in range(best, len(speedups) - 1)
        )
        return rising and falling

    def render(self) -> str:
        rows = [
            (
                f"{p.arrival_rate_per_s:.0f}",
                f"{p.pcmig.mean_response_time_s * 1e3:.1f}",
                f"{p.hotpotato.mean_response_time_s * 1e3:.1f}",
                f"{p.speedup_pct:+.2f}",
            )
            for p in self.points
        ]
        table = render_table(
            [
                "arrival rate [tasks/s]",
                "PCMig response [ms]",
                "HotPotato response [ms]",
                "speedup [%]",
            ],
            rows,
            title="Fig. 4(b): heterogeneous open system on 64 cores "
            f"(paper: up to +{PAPER_PEAK_SPEEDUP_PCT:.2f} % at medium load)",
        )
        chart = render_bar_chart(
            [f"{p.arrival_rate_per_s:.0f}/s" for p in self.points],
            [p.speedup_pct for p in self.points],
            unit="%",
            title="\nHotPotato speedup vs load",
        )
        return f"{table}\n{chart}\npeak speedup: +{self.peak_speedup_pct:.2f} %"


def _cell_specs(
    arrival_rate_per_s: float,
    n_tasks: int,
    seed: int,
    work_scale: float,
    trace: Optional[List[TaskSpec]] = None,
) -> List[TaskSpec]:
    """The task specs of one sweep cell.

    Without ``trace`` this is the paper's homogeneous Poisson schedule
    over a random mixed workload; with it (a loaded arrival trace), the
    recorded schedule is replayed wholesale (benchmarks, thread counts and
    work scales included), ignoring the synthetic-workload knobs.
    """
    if trace is not None:
        return trace
    base = random_mixed_workload(n_tasks, seed=seed, work_scale=work_scale)
    return assign_arrivals(base, PoissonProcess(arrival_rate_per_s), seed=seed + 1)


def _simulate_cell(
    arrival_rate_per_s: float,
    scheduler: str,
    config: SystemConfig,
    model: RCThermalModel,
    n_tasks: int,
    seed: int,
    work_scale: float,
    max_time_s: float,
    trace: Optional[List[TaskSpec]] = None,
) -> SimulationResult:
    """One (arrival rate, scheduler) cell — module-level for pool pickling.

    Builds its own :class:`SimContext` from the shared thermal model, as
    the serial sweep always did, so serial and parallel runs agree exactly.
    """
    specs = _cell_specs(arrival_rate_per_s, n_tasks, seed, work_scale, trace)
    sim = IntervalSimulator(
        config,
        _SCHEDULERS[scheduler](),
        materialize(specs),
        ctx=SimContext(config, model),
    )
    return sim.run(max_time_s=max_time_s)


def run(
    config: SystemConfig = None,
    model: Optional[RCThermalModel] = None,
    arrival_rates_per_s: Sequence[float] = DEFAULT_ARRIVAL_RATES,
    n_tasks: int = 40,
    seed: int = 7,
    work_scale: float = 2.0,
    max_time_s: float = 60.0,
    jobs: int = 1,
    checkpoint_path=None,
    resume: bool = False,
    trace_path=None,
) -> Fig4bResult:
    """Regenerate Fig. 4(b) over the given arrival-rate sweep.

    ``jobs > 1`` distributes the (rate, scheduler) cells over worker
    processes; results are identical to a serial run.

    ``checkpoint_path``/``resume`` enable crash-tolerant sweeps exactly
    as in :func:`repro.experiments.fig4a.run` (``docs/faults.md``).

    ``trace_path`` replays a recorded JSONL schedule (``docs/traffic.md``)
    in every cell instead of the paper's Poisson schedule; the rate axis
    then only labels the sweep.  The trace is loaded once, before any cell
    runs; a malformed or empty one, or one whose arrivals all fall at or
    past ``max_time_s``, raises ``ValueError`` naming the file.  A cell
    that completes no task by ``max_time_s`` raises ``ValueError`` naming
    the cell (and the trace file, if any).
    """
    cfg = config if config is not None else table1()
    trace = None
    if trace_path is not None:
        trace = load_arrival_trace(trace_path)
        if not trace:
            raise ValueError(f"{trace_path}: the arrival trace has no arrivals")
        if trace[0].arrival_time_s >= max_time_s:
            # arrivals are sorted: no task could arrive, let alone complete
            raise ValueError(
                f"{trace_path}: every arrival falls at or past the horizon; "
                f"the first arrives at time_s {trace[0].arrival_time_s!r}, "
                f"max_time_s is {max_time_s!r}"
            )
    shared = SimContext(cfg, model)

    cells = [
        Cell(
            key=(rate, scheduler),
            fn=_simulate_cell,
            kwargs=dict(
                arrival_rate_per_s=rate,
                scheduler=scheduler,
                config=cfg,
                model=shared.thermal_model,
                n_tasks=n_tasks,
                seed=seed,
                work_scale=work_scale,
                max_time_s=max_time_s,
                trace=trace,
            ),
        )
        for rate in arrival_rates_per_s
        for scheduler in ("pcmig", "hotpotato")
    ]
    outcomes = run_cells(
        cells,
        jobs=jobs,
        checkpoint_path=checkpoint_path,
        resume=resume,
        encode=result_to_dict,
        decode=result_from_dict,
    )
    for (rate, scheduler), outcome in outcomes.items():
        if not outcome.tasks:
            # a response-time figure needs at least one completed task
            source = f"{trace_path}: " if trace_path is not None else ""
            raise ValueError(
                f"{source}cell (rate {rate:g}/s, {scheduler}) completed no "
                f"task by max_time_s {max_time_s!r}"
            )
    points = tuple(
        LoadPoint(
            arrival_rate_per_s=rate,
            hotpotato=outcomes[(rate, "hotpotato")],
            pcmig=outcomes[(rate, "pcmig")],
        )
        for rate in arrival_rates_per_s
    )
    return Fig4bResult(points=points)
