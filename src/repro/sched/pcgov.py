"""PCGov baseline: TSP power budgeting enforced by per-core DVFS.

PCGov (Rapp et al., ISLPED 2018 / TC 2019) maps tasks onto the S-NUCA
many-core performance-greedily and keeps the chip thermally safe purely
with DVFS: every active core receives the (mapping-aware) Thermal Safe
Power budget, and each core's frequency is the highest 100 MHz step whose
full-activity thread power (the task profile's power at that step) fits
the budget — deterministic and thermally safe by construction, the
published governor.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from ..workload.task import Task
from .base import Scheduler, SchedulerDecision
from .naive import StaticPlacer


class PCGovScheduler(Scheduler):
    """TSP-budgeted DVFS scheduler (no migrations)."""

    name = "pcgov"

    def __init__(self, budget_mode: str = "mapping") -> None:
        """``budget_mode``: ``"mapping"`` uses the mapping-aware TSP budget
        (the stronger PCGov variant); ``"worst-case"`` uses the classic
        mapping-agnostic TSP budget of Pagani et al. (what the paper's
        Fig. 2b labels "TSP")."""
        super().__init__()
        if budget_mode not in ("mapping", "worst-case"):
            raise ValueError("budget_mode must be 'mapping' or 'worst-case'")
        self.budget_mode = budget_mode
        self._placer: Optional[StaticPlacer] = None
        self._budget_w: Optional[float] = None
        self._core_freq: Optional[np.ndarray] = None
        self._profile_of: Dict[str, object] = {}
        # the profile governor is a pure function of (profile, core,
        # budget): the DVFS ladder, LLC latencies and power model never
        # change mid-run, so memoizing the picked level is byte-exact
        self._profile_freq_cache: Dict[tuple, float] = {}

    def attach(self, ctx) -> None:
        super().attach(ctx)
        self._placer = StaticPlacer(ctx.rings.amd)
        self._core_freq = np.full(ctx.n_cores, ctx.config.dvfs.f_max_hz)

    # -- placement ------------------------------------------------------------

    def _can_admit(self, task: Task) -> bool:
        return len(self._placer.free_cores()) >= task.n_threads

    def _admit(self, task: Task, now_s: float) -> None:
        self._placer.place_task(task)
        for thread in task.threads:
            self._profile_of[thread.thread_id] = task.profile
        self._recompute_budget()

    def _release(self, task: Task, now_s: float) -> None:
        self._placer.release_task(task)
        for thread in task.threads:
            self._profile_of.pop(thread.thread_id, None)
        self._recompute_budget()

    def _recompute_budget(self) -> None:
        active = self._placer.occupied_cores()
        if not active:
            self._budget_w = None
        elif self.budget_mode == "worst-case":
            self._budget_w = self.ctx.tsp.worst_case_budget(len(active))
        else:
            self._budget_w = self.ctx.tsp.budget_for_mapping(active)

    def on_migration_failure(self, failures, placements, now_s: float) -> None:
        """Bring the placer back in line with the repaired placement map.

        An aborted hop means the thread never left its source core; the
        TSP budget is mapping-aware, so it is recomputed for the actual
        mapping.
        """
        self._placer.sync(placements)
        self._recompute_budget()

    # -- DVFS governor ----------------------------------------------------------

    def _profile_frequency(self, thread_id: str, core: int) -> float:
        """Highest step whose full-activity thread power fits the budget."""
        profile = self._profile_of.get(thread_id)
        f_max = self.ctx.config.dvfs.f_max_hz
        if profile is None or self._budget_w is None:
            return f_max
        key = (profile.name, core, self._budget_w)
        cached = self._profile_freq_cache.get(key)
        if cached is not None:
            return cached
        levels = self.ctx.dvfs.levels
        chosen = levels[0]
        for mid in range(len(levels) - 1, -1, -1):
            compute, stall = self.ctx.perf.activity_fractions(
                profile, core, levels[mid]
            )
            power = self.ctx.power_model.core_power_w(
                profile.p_dyn_ref_w, levels[mid], compute, stall
            )
            if power <= self._budget_w:
                chosen = levels[mid]
                break
        self._profile_freq_cache[key] = chosen
        return chosen

    def decide(self, now_s: float) -> SchedulerDecision:
        placements = dict(self._placer.placements)
        freqs = np.full(self.ctx.n_cores, self.ctx.config.dvfs.f_max_hz)
        for thread_id, core in placements.items():
            freqs[core] = self._profile_frequency(thread_id, core)
        self._core_freq = freqs
        return SchedulerDecision(
            placements=placements,
            frequencies=freqs,
            waiting=self.waiting_threads(),
        )

    def metrics(self) -> Mapping[str, float]:
        """TSP-budget state for the observability snapshot."""
        data = dict(super().metrics())
        if self._budget_w is not None:
            data["tsp_budget_w"] = float(self._budget_w)
        if self._core_freq is not None and self._placer is not None:
            occupied = self._placer.occupied_cores()
            f_max = self.ctx.config.dvfs.f_max_hz
            data["throttled_cores"] = float(
                sum(1 for c in occupied if self._core_freq[c] < f_max)
            )
        return data
