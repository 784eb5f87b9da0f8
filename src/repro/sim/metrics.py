"""Simulation metrics: the quantities the paper's evaluation reports.

- **response time** per task (completion - arrival; Fig. 2 quotes these for
  the motivational example, Fig. 4b for the open system);
- **makespan** of a closed-system batch (Fig. 4a reports it normalized);
- thermal statistics (peak, threshold violations, DTM activity);
- scheduling overheads (migrations, penalty time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass
class TaskRecord:
    """Outcome of one task."""

    task_id: int
    benchmark: str
    n_threads: int
    arrival_s: float
    completion_s: float

    @property
    def response_time_s(self) -> float:
        """Completion minus arrival."""
        return self.completion_s - self.arrival_s


@dataclass
class TimeBreakdown:
    """Where one thread's wall time went (Sniper-style time stack).

    ``compute + stall + migration + wait`` accounts for every placed
    interval; ``queued`` counts time before admission.
    """

    compute_s: float = 0.0
    #: S-NUCA memory-stall share of busy time
    stall_s: float = 0.0
    #: migration debt (private-cache refill)
    migration_s: float = 0.0
    #: barrier wait (placed but no phase work)
    wait_s: float = 0.0
    #: waiting in the admission queue
    queued_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Total accounted wall time."""
        return (
            self.compute_s
            + self.stall_s
            + self.migration_s
            + self.wait_s
            + self.queued_s
        )

    def fraction(self, component: str) -> float:
        """Share of one component (``compute``/``stall``/``migration``/
        ``wait``/``queued``) in the accounted time."""
        total = self.total_s
        if total <= 0:
            return 0.0
        value = getattr(self, f"{component}_s")
        return value / total

    def render(self) -> str:
        total = self.total_s
        if total <= 0:
            return "(no time accounted)"
        parts = []
        for name in ("compute", "stall", "migration", "wait", "queued"):
            value = getattr(self, f"{name}_s")
            parts.append(f"{name} {value * 1e3:.1f} ms ({value / total:.0%})")
        return "  ".join(parts)


@dataclass
class SimulationResult:
    """Everything a finished simulation reports."""

    scheduler_name: str
    sim_time_s: float
    #: hottest core temperature at any sample (t = 0 and every interval
    #: end, idle gaps included) [degC]
    peak_temperature_c: float
    #: time with the hottest core above T_DTM, each sample held until the
    #: next one [s]
    time_above_dtm_s: float
    tasks: List[TaskRecord] = field(default_factory=list)
    #: count of DTM trigger events (cool -> throttled transitions)
    dtm_triggers: int = 0
    #: core-seconds spent DTM-throttled
    dtm_core_time_s: float = 0.0
    migration_count: int = 0
    migration_penalty_s: float = 0.0
    #: total chip energy [J]
    energy_j: float = 0.0
    #: per-core energy integral [J] (empty when not tracked, e.g. results
    #: deserialized from pre-energy-accounting campaigns)
    energy_per_core_j: List[float] = field(default_factory=list)
    #: instructions retired across all threads over the run
    instructions_retired: float = 0.0
    #: wall-clock spent inside scheduler decisions [s] (overhead study)
    scheduler_wall_time_s: float = 0.0
    scheduler_invocations: int = 0
    annotations: Dict[str, float] = field(default_factory=dict)
    #: per-thread wall-time breakdown (thread id -> TimeBreakdown)
    time_breakdown: Dict[str, "TimeBreakdown"] = field(default_factory=dict)
    #: flat metrics-registry snapshot (empty unless metrics were enabled;
    #: see :class:`repro.obs.MetricsRegistry`)
    metrics_snapshot: Dict[str, float] = field(default_factory=dict)
    #: per-phase wall-clock profile (empty unless profiling was enabled;
    #: see :class:`repro.obs.PhaseProfiler`)
    profile: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # -- derived metrics -----------------------------------------------------

    @property
    def makespan_s(self) -> float:
        """Completion time of the last task (closed-system metric)."""
        if not self.tasks:
            raise ValueError("no completed tasks")
        return max(t.completion_s for t in self.tasks)

    @property
    def mean_response_time_s(self) -> float:
        """Average task response time (open-system metric)."""
        if not self.tasks:
            raise ValueError("no completed tasks")
        return float(np.mean([t.response_time_s for t in self.tasks]))

    def response_time_of(self, task_id: int) -> float:
        """Response time of one task."""
        for record in self.tasks:
            if record.task_id == task_id:
                return record.response_time_s
        raise KeyError(f"task {task_id} not completed")

    @property
    def edp_js(self) -> float:
        """Energy-delay product [J*s]: total energy times the run's span."""
        return self.energy_j * self.sim_time_s

    @property
    def energy_per_instruction_j(self) -> float:
        """Average energy per retired instruction [J] (0 when no work ran)."""
        if self.instructions_retired <= 0:
            return 0.0
        return self.energy_j / self.instructions_retired

    def response_time_quantile_s(self, q: float) -> float:
        """Exact response-time quantile over completed tasks.

        (The metrics snapshot additionally carries the log-bucketed
        estimator's p50/p99 as ``engine.response_time_p50_s`` /
        ``..._p99_s`` gauges when metrics are enabled.)
        """
        if not self.tasks:
            raise ValueError("no completed tasks")
        values = sorted(t.response_time_s for t in self.tasks)
        return float(np.quantile(np.asarray(values), q))

    def mean_scheduler_overhead_s(self) -> float:
        """Mean wall-clock time of one scheduler invocation."""
        if self.scheduler_invocations == 0:
            return 0.0
        return self.scheduler_wall_time_s / self.scheduler_invocations

    def aggregate_breakdown(self) -> "TimeBreakdown":
        """Chip-wide time stack: the per-thread breakdowns summed."""
        total = TimeBreakdown()
        for breakdown in self.time_breakdown.values():
            total.compute_s += breakdown.compute_s
            total.stall_s += breakdown.stall_s
            total.migration_s += breakdown.migration_s
            total.wait_s += breakdown.wait_s
            total.queued_s += breakdown.queued_s
        return total

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"scheduler={self.scheduler_name}  sim_time={self.sim_time_s * 1e3:.1f} ms",
            f"tasks completed: {len(self.tasks)}",
        ]
        if self.tasks:
            lines.append(
                f"makespan={self.makespan_s * 1e3:.1f} ms  "
                f"mean response={self.mean_response_time_s * 1e3:.1f} ms"
            )
        lines.append(f"peak temperature={self.peak_temperature_c:.2f} C")
        lines.append(
            f"DTM triggers={self.dtm_triggers}  "
            f"throttled core-time={self.dtm_core_time_s * 1e3:.1f} ms"
        )
        lines.append(
            f"migrations={self.migration_count}  "
            f"penalty={self.migration_penalty_s * 1e3:.2f} ms  "
            f"energy={self.energy_j:.1f} J"
        )
        if self.metrics_snapshot:
            lines.append(f"metrics recorded: {len(self.metrics_snapshot)}")
        if self.profile:
            lines.append(f"profiled phases: {', '.join(self.profile)}")
        return "\n".join(lines)
