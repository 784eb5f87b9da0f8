"""Asynchronous on-demand migration without DVFS.

The paper's introduction contrasts its *synchronous, proactive* rotations
with the traditional strategy of *asynchronous, on-demand* migrations
performed "often as a measure of last resort".  This baseline isolates that
contrast: like HotPotato it never touches DVFS, but instead of rotating
proactively it migrates only when the RC predictor says a core is about to
cross the threshold — PCMig's migration trigger without PCMig's DVFS.

Expected behaviour (verified in ``benchmarks/test_ablation_async_vs_sync``):
reactive migrations fire after heat has already accumulated, ping-pong
threads between the few cool cores, and leave DTM to clean up — losing to
synchronous rotation on hot workloads.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import units
from ..workload.task import Task
from .base import Scheduler, SchedulerDecision
from .naive import StaticPlacer

#: Prediction horizon [s] and guard band [degC] (as PCMig).
_PREDICTION_HORIZON_S = units.ms(5.0)
_GUARD_BAND_C = 1.0
_MAX_MIGRATIONS_PER_INTERVAL = 2


class AsyncMigrationScheduler(Scheduler):
    """Reactive predictive migrations at fixed peak frequency."""

    name = "async-migration"

    def __init__(
        self,
        prediction_horizon_s: float = _PREDICTION_HORIZON_S,
        guard_band_c: float = _GUARD_BAND_C,
    ) -> None:
        super().__init__()
        self.prediction_horizon_s = prediction_horizon_s
        self.guard_band_c = guard_band_c
        self._placer: Optional[StaticPlacer] = None
        self.migration_decisions = 0

    def attach(self, ctx) -> None:
        super().attach(ctx)
        self._placer = StaticPlacer(ctx.rings.amd)

    # -- admission ------------------------------------------------------------

    def _can_admit(self, task: Task) -> bool:
        return len(self._placer.free_cores()) >= task.n_threads

    def _admit(self, task: Task, now_s: float) -> None:
        self._placer.place_task(task)

    def _release(self, task: Task, now_s: float) -> None:
        self._placer.release_task(task)

    # -- reactive migration -----------------------------------------------------

    def _predicted_core_temps(self) -> Optional[np.ndarray]:
        try:
            temps_now = self.observed_temperatures()
        except RuntimeError:
            return None
        idle = self.ctx.power_model.idle_power_w()
        power = np.full(self.ctx.n_cores, idle)
        # placed threads with history draw their latest sample
        slots, cores = self._placer.slot_arrays(self.ctx)
        window = self.ctx.power_window()
        known = window.has_history[slots]
        power[cores[known]] = window.recent_w[slots[known]]
        model = self.ctx.thermal_model
        ambient = self.ctx.config.thermal.ambient_c
        nodes = model.steady_state(power, ambient)
        nodes[: model.n_cores] = temps_now
        # one-shot what-if: eigenbasis step, no second steady-state solve
        future = self.ctx.dynamics.step_spectral(
            nodes, power, ambient, self.prediction_horizon_s
        )
        return model.core_temperatures(future)

    def _maybe_migrate(self) -> None:
        predicted = self._predicted_core_temps()
        if predicted is None:
            return
        threshold = self.ctx.config.thermal.dtm_threshold_c - self.guard_band_c
        placements = self._placer.placements
        occupied = {core: thread for thread, core in placements.items()}
        free = self._placer.free_cores()
        if not free:
            return
        endangered = sorted(
            (core for core in occupied if predicted[core] > threshold),
            key=lambda c: -predicted[c],
        )
        for core in endangered[:_MAX_MIGRATIONS_PER_INTERVAL]:
            if not free:
                break
            free.sort(key=lambda c: (predicted[c], self.ctx.rings.amd[c]))
            target = free[0]
            if predicted[target] >= predicted[core]:
                continue
            self._placer.move(occupied[core], target)
            free.remove(target)
            free.append(core)
            self.migration_decisions += 1

    def on_migration_failure(self, failures, placements, now_s: float) -> None:
        """Sync the placer with the repaired map after aborted hops."""
        self._placer.sync(placements)

    def decide(self, now_s: float) -> SchedulerDecision:
        self._maybe_migrate()
        freqs = np.full(self.ctx.n_cores, self.ctx.config.dvfs.f_max_hz)
        return SchedulerDecision(
            placements=dict(self._placer.placements),
            frequencies=freqs,
            waiting=self.waiting_threads(),
        )
