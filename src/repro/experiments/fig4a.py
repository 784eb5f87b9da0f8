"""Fig. 4(a): homogeneous-workload comparison, HotPotato vs PCMig.

The 64-core chip is fully loaded with vari-sized multi-threaded instances of
one benchmark (closed system, all arriving at t=0); the paper reports the
makespan of PCMig normalized to HotPotato's.  Published result: HotPotato is
on average 10.72 % faster, with the memory-bound, cold *canneal* showing the
smallest gain (0.73 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

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
from ..workload.benchmarks import PARSEC
from ..workload.generator import homogeneous_fill, materialize
from .reporting import render_bar_chart, render_table

_SCHEDULERS = {"pcmig": PCMigScheduler, "hotpotato": HotPotatoScheduler}

#: Paper's headline numbers for comparison in reports.
PAPER_MEAN_SPEEDUP_PCT = 10.72
PAPER_CANNEAL_SPEEDUP_PCT = 0.73


@dataclass
class BenchmarkComparison:
    """One benchmark's HotPotato-vs-PCMig outcome."""

    benchmark: str
    hotpotato: SimulationResult
    pcmig: SimulationResult

    @property
    def speedup_pct(self) -> float:
        """PCMig makespan over HotPotato makespan, minus one, in percent."""
        return (self.pcmig.makespan_s / self.hotpotato.makespan_s - 1.0) * 100.0

    @property
    def normalized_makespan(self) -> float:
        """HotPotato makespan normalized to PCMig (the paper's y-axis)."""
        return self.hotpotato.makespan_s / self.pcmig.makespan_s


@dataclass
class Fig4aResult:
    """All benchmark comparisons."""

    comparisons: Dict[str, BenchmarkComparison]

    @property
    def mean_speedup_pct(self) -> float:
        """Average speedup across benchmarks (paper: 10.72 %)."""
        return float(
            np.mean([c.speedup_pct for c in self.comparisons.values()])
        )

    def render(self) -> str:
        rows = []
        for name, comp in self.comparisons.items():
            rows.append(
                (
                    name,
                    f"{comp.pcmig.makespan_s * 1e3:.1f}",
                    f"{comp.hotpotato.makespan_s * 1e3:.1f}",
                    f"{comp.normalized_makespan:.3f}",
                    f"{comp.speedup_pct:+.2f}",
                )
            )
        table = render_table(
            [
                "benchmark",
                "PCMig makespan [ms]",
                "HotPotato makespan [ms]",
                "normalized",
                "speedup [%]",
            ],
            rows,
            title="Fig. 4(a): homogeneous workloads on 64 cores "
            f"(paper mean: +{PAPER_MEAN_SPEEDUP_PCT:.2f} %, "
            f"canneal lowest at +{PAPER_CANNEAL_SPEEDUP_PCT:.2f} %)",
        )
        chart = render_bar_chart(
            list(self.comparisons),
            [c.speedup_pct for c in self.comparisons.values()],
            unit="%",
            title="\nHotPotato speedup over PCMig",
        )
        return f"{table}\n{chart}\nmean speedup: {self.mean_speedup_pct:+.2f} %"


def _simulate_cell(
    benchmark: str,
    scheduler: str,
    config: SystemConfig,
    model: RCThermalModel,
    seed: int,
    work_scale: float,
    max_time_s: float,
) -> SimulationResult:
    """One (benchmark, scheduler) cell — module-level so pools can pickle it.

    Every cell builds its own :class:`SimContext` from the shared thermal
    model, exactly as the serial sweep always did, so serial and parallel
    execution are byte-identical.
    """
    tasks = materialize(
        homogeneous_fill(benchmark, config.n_cores, seed=seed, work_scale=work_scale)
    )
    sim = IntervalSimulator(
        config,
        _SCHEDULERS[scheduler](),
        tasks,
        ctx=SimContext(config, model),
    )
    return sim.run(max_time_s=max_time_s)


def run(
    config: SystemConfig = None,
    model: Optional[RCThermalModel] = None,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 42,
    work_scale: float = 2.5,
    max_time_s: float = 5.0,
    jobs: int = 1,
    checkpoint_path=None,
    resume: bool = False,
) -> Fig4aResult:
    """Regenerate Fig. 4(a).

    ``benchmarks`` restricts the sweep (useful for fast CI runs); the
    default runs all eight evaluated PARSEC benchmarks.  ``jobs > 1``
    fans the (benchmark, scheduler) cells out over worker processes;
    the results are identical to a serial run.

    ``checkpoint_path`` persists each finished cell to a JSONL
    :class:`~repro.parallel.SweepCheckpoint`; with ``resume`` a killed
    sweep restarts only its incomplete cells and produces byte-identical
    results (``docs/faults.md``).
    """
    cfg = config if config is not None else table1()
    names = list(benchmarks) if benchmarks is not None else list(PARSEC)
    shared = SimContext(cfg, model)

    cells = [
        Cell(
            key=(name, scheduler),
            fn=_simulate_cell,
            kwargs=dict(
                benchmark=name,
                scheduler=scheduler,
                config=cfg,
                model=shared.thermal_model,
                seed=seed,
                work_scale=work_scale,
                max_time_s=max_time_s,
            ),
        )
        for name in names
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
    comparisons = {
        name: BenchmarkComparison(
            benchmark=name,
            hotpotato=outcomes[(name, "hotpotato")],
            pcmig=outcomes[(name, "pcmig")],
        )
        for name in names
    }
    return Fig4aResult(comparisons=comparisons)
