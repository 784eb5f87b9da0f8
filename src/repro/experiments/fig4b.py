"""Fig. 4(b): heterogeneous open-system comparison across load levels.

A random 20-benchmark multi-program workload arrives following a Poisson
process; sweeping the arrival rate moves the open system from under- to
over-loaded.  The paper reports that HotPotato beats PCMig at every load,
with gains that are small when the system is under- or over-loaded (little
scope for thermal optimization / queue-dominated) and peak at ~12.27 %
under medium load.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SystemConfig, table1
from ..io import result_from_dict, result_to_dict
from ..parallel import Cell, run_cells
from ..sched.hotpotato_runtime import HotPotatoScheduler
from ..sched.pcmig import PCMigScheduler
from ..sched.qos_aware import QoSAwareScheduler
from ..sim.context import SimContext
from ..sim.engine import IntervalSimulator
from ..sim.metrics import SimulationResult
from ..thermal.rc_model import RCThermalModel
from ..traffic import TRAFFIC_PATTERNS, assign_arrivals, build_process
from ..traffic.trace import load_arrival_trace
from ..workload.generator import (
    TaskSpec,
    materialize,
    random_mixed_workload,
)
from ..workload.qos import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CRITICAL,
    PRIORITY_NORMAL,
    QosSpec,
)
from .reporting import render_bar_chart, render_table

_SCHEDULERS = {
    "pcmig": PCMigScheduler,
    "hotpotato": HotPotatoScheduler,
    "qos": QoSAwareScheduler,
}

#: Scenario-matrix axes (EXPERIMENTS.md): every traffic pattern crossed
#: with every scheduler under comparison.
MATRIX_TRAFFICS = TRAFFIC_PATTERNS
MATRIX_SCHEDULERS = ("hotpotato", "pcmig", "qos")

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


def annotate_qos(
    specs: List[TaskSpec], deadline_s: Optional[float]
) -> List[TaskSpec]:
    """Stamp a deterministic QoS mix onto a spec list.

    Priorities cycle best-effort / normal / critical by position (so every
    class is populated regardless of list length) and every task gets the
    same relative ``deadline_s``; ``None`` leaves the specs untouched.
    """
    if deadline_s is None:
        return list(specs)
    cycle = (PRIORITY_BEST_EFFORT, PRIORITY_NORMAL, PRIORITY_CRITICAL)
    return [
        replace(
            spec,
            qos=QosSpec(deadline_s=deadline_s, priority=cycle[i % len(cycle)]),
        )
        for i, spec in enumerate(specs)
    ]


def _cell_specs(
    arrival_rate_per_s: float,
    n_tasks: int,
    seed: int,
    work_scale: float,
    max_time_s: float,
    traffic: str,
    trace_path,
    deadline_s: Optional[float],
) -> List[TaskSpec]:
    """The task specs of one sweep cell under the chosen traffic pattern.

    ``traffic="poisson"`` is a homogeneous Poisson schedule
    (:class:`repro.traffic.PoissonProcess`); ``"trace"`` replays a
    recorded JSONL schedule wholesale (benchmarks, thread counts and QoS
    annotations included), ignoring the synthetic-workload knobs.
    """
    if traffic == "trace":
        if trace_path is None:
            raise ValueError("traffic='trace' requires trace_path")
        return load_arrival_trace(trace_path)
    base = annotate_qos(
        random_mixed_workload(n_tasks, seed=seed, work_scale=work_scale),
        deadline_s,
    )
    process = build_process(traffic, arrival_rate_per_s, horizon_s=max_time_s)
    return assign_arrivals(base, process, seed=seed + 1)


def _simulate_cell(
    arrival_rate_per_s: float,
    scheduler: str,
    config: SystemConfig,
    model: RCThermalModel,
    n_tasks: int,
    seed: int,
    work_scale: float,
    max_time_s: float,
    traffic: str = "poisson",
    trace_path=None,
    deadline_s: Optional[float] = None,
) -> SimulationResult:
    """One (arrival rate, scheduler) cell — module-level for pool pickling.

    Builds its own :class:`SimContext` from the shared thermal model, as
    the serial sweep always did, so serial and parallel runs agree exactly.
    """
    specs = _cell_specs(
        arrival_rate_per_s,
        n_tasks,
        seed,
        work_scale,
        max_time_s,
        traffic,
        trace_path,
        deadline_s,
    )
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
    traffic: str = "poisson",
    trace_path=None,
    deadline_s: Optional[float] = None,
) -> Fig4bResult:
    """Regenerate Fig. 4(b) over the given arrival-rate sweep.

    ``jobs > 1`` distributes the (rate, scheduler) cells over worker
    processes; results are identical to a serial run.

    ``checkpoint_path``/``resume`` enable crash-tolerant sweeps exactly
    as in :func:`repro.experiments.fig4a.run` (``docs/faults.md``).

    ``traffic`` selects the arrival process (``docs/traffic.md``); the
    default reproduces the paper's Poisson schedule byte-for-byte.
    ``traffic="trace"`` replays the JSONL schedule at ``trace_path`` in
    every cell (the rate axis then only labels the sweep).
    """
    cfg = config if config is not None else table1()
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
                traffic=traffic,
                trace_path=trace_path,
                deadline_s=deadline_s,
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
    points = tuple(
        LoadPoint(
            arrival_rate_per_s=rate,
            hotpotato=outcomes[(rate, "hotpotato")],
            pcmig=outcomes[(rate, "pcmig")],
        )
        for rate in arrival_rates_per_s
    )
    return Fig4bResult(points=points)


@dataclass
class MatrixResult:
    """The {traffic pattern} x {scheduler} scenario matrix (EXPERIMENTS.md)."""

    #: (traffic, scheduler) -> simulation outcome
    cells: Dict[Tuple[str, str], SimulationResult]
    arrival_rate_per_s: float

    def cell(self, traffic: str, scheduler: str) -> SimulationResult:
        """One cell's outcome."""
        return self.cells[(traffic, scheduler)]

    def render(self) -> str:
        traffics = sorted({t for t, _ in self.cells})
        schedulers = sorted({s for _, s in self.cells})
        rows = []
        for traffic in traffics:
            row = [traffic]
            for scheduler in schedulers:
                result = self.cells[(traffic, scheduler)]
                mean = (
                    f"{result.mean_response_time_s * 1e3:.1f}"
                    if result.tasks
                    else "-"
                )
                row.append(f"{mean} ({len(result.tasks)} done)")
            rows.append(tuple(row))
        return render_table(
            ["traffic \\ scheduler [mean resp ms]"] + schedulers,
            rows,
            title="Fig. 4(b) scenario matrix at "
            f"{self.arrival_rate_per_s:.0f} tasks/s",
        )


def run_matrix(
    config: SystemConfig = None,
    model: Optional[RCThermalModel] = None,
    traffics: Sequence[str] = MATRIX_TRAFFICS,
    schedulers: Sequence[str] = MATRIX_SCHEDULERS,
    arrival_rate_per_s: float = 30.0,
    n_tasks: int = 40,
    seed: int = 7,
    work_scale: float = 2.0,
    max_time_s: float = 60.0,
    trace_path=None,
    deadline_s: Optional[float] = None,
) -> MatrixResult:
    """Run the {traffic} x {scheduler} scenario matrix at one load level.

    All cells share one thermal model (calibration amortized) and are
    fully deterministic in ``seed``.  Including ``"trace"`` in
    ``traffics`` requires ``trace_path``; ``deadline_s`` stamps the
    synthetic workload with the deterministic QoS mix of
    :func:`annotate_qos` so the QoS scheduler's priority classes are
    populated.
    """
    if "trace" in traffics and trace_path is None:
        raise ValueError(
            "the scenario matrix includes 'trace' cells: pass trace_path "
            "(write one with repro.traffic.write_arrival_trace)"
        )
    unknown = [s for s in schedulers if s not in _SCHEDULERS]
    if unknown:
        raise ValueError(f"unknown schedulers {unknown}")
    cfg = config if config is not None else table1()
    shared = SimContext(cfg, model)
    cells: Dict[Tuple[str, str], SimulationResult] = {}
    for traffic in traffics:
        for scheduler in schedulers:
            cells[(traffic, scheduler)] = _simulate_cell(
                arrival_rate_per_s,
                scheduler,
                cfg,
                shared.thermal_model,
                n_tasks,
                seed,
                work_scale,
                max_time_s,
                traffic=traffic,
                trace_path=trace_path,
                deadline_s=deadline_s,
            )
    return MatrixResult(cells=cells, arrival_rate_per_s=arrival_rate_per_s)
