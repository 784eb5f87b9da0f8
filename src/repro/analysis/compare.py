"""Scheduler-comparison utilities.

Aggregates :class:`~repro.sim.metrics.SimulationResult` objects across
benchmarks/seeds into the normalized tables the paper's Fig. 4 reports, and
provides seed-averaged campaign helpers for robustness studies beyond the
paper's single-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..config import SystemConfig
from ..sched.base import Scheduler
from ..sim.context import SimContext
from ..sim.engine import IntervalSimulator
from ..sim.metrics import SimulationResult
from ..workload.generator import TaskSpec, materialize


@dataclass(frozen=True)
class PairedOutcome:
    """Two schedulers on the same workload."""

    label: str
    baseline: SimulationResult
    candidate: SimulationResult

    @property
    def makespan_speedup_pct(self) -> float:
        """Baseline over candidate makespan, minus one, in percent."""
        return (self.baseline.makespan_s / self.candidate.makespan_s - 1) * 100

    @property
    def response_speedup_pct(self) -> float:
        """Baseline over candidate mean response, minus one, in percent."""
        return (
            self.baseline.mean_response_time_s
            / self.candidate.mean_response_time_s
            - 1
        ) * 100


def run_pair(
    config: SystemConfig,
    make_baseline: Callable[[], Scheduler],
    make_candidate: Callable[[], Scheduler],
    specs: Sequence[TaskSpec],
    label: str = "",
    shared_ctx: Optional[SimContext] = None,
    max_time_s: float = 10.0,
    **sim_kwargs,
) -> PairedOutcome:
    """Run two schedulers on identical workloads and pair the outcomes.

    Each scheduler gets freshly materialized tasks (task objects are
    stateful) and a fresh :class:`SimContext` sharing one calibrated thermal
    model.
    """
    shared = shared_ctx if shared_ctx is not None else SimContext(config)
    results = []
    for factory in (make_baseline, make_candidate):
        sim = IntervalSimulator(
            config,
            factory(),
            materialize(list(specs)),
            ctx=SimContext(config, shared.thermal_model),
            **sim_kwargs,
        )
        results.append(sim.run(max_time_s=max_time_s))
    return PairedOutcome(label=label, baseline=results[0], candidate=results[1])


def seed_averaged_speedup(
    config: SystemConfig,
    make_baseline: Callable[[], Scheduler],
    make_candidate: Callable[[], Scheduler],
    make_specs: Callable[[int], Sequence[TaskSpec]],
    seeds: Sequence[int],
    metric: str = "makespan",
    shared_ctx: Optional[SimContext] = None,
    max_time_s: float = 10.0,
) -> Dict[str, float]:
    """Speedup statistics across workload seeds.

    Returns ``{"mean": .., "std": .., "min": .., "max": ..}`` of the
    percentage speedup; ``metric`` selects makespan or mean response time.
    """
    if metric not in ("makespan", "response"):
        raise ValueError("metric must be 'makespan' or 'response'")
    shared = shared_ctx if shared_ctx is not None else SimContext(config)
    speedups: List[float] = []
    for seed in seeds:
        outcome = run_pair(
            config,
            make_baseline,
            make_candidate,
            make_specs(seed),
            label=f"seed={seed}",
            shared_ctx=shared,
            max_time_s=max_time_s,
        )
        speedups.append(
            outcome.makespan_speedup_pct
            if metric == "makespan"
            else outcome.response_speedup_pct
        )
    values = np.array(speedups)
    return {
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
        "min": float(np.min(values)),
        "max": float(np.max(values)),
    }
