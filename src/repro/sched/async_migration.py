"""Asynchronous on-demand migration without DVFS.

The paper's introduction contrasts its *synchronous, proactive* rotations
with the traditional strategy of *asynchronous, on-demand* migrations
performed "often as a measure of last resort".  This baseline isolates that
contrast: like HotPotato it never touches DVFS, but instead of rotating
proactively it migrates only when the RC predictor says a core is about to
cross the threshold — PCMig's migration trigger
(:class:`~repro.sched.pcmig.OnDemandMigration`) without PCMig's DVFS, fed
with each thread's latest power sample instead of its window average.

Expected behaviour (verified in ``benchmarks/test_ablation_async_vs_sync``):
reactive migrations fire after heat has already accumulated, ping-pong
threads between the few cool cores, and leave DTM to clean up — losing to
synchronous rotation on hot workloads.
"""

from __future__ import annotations

import numpy as np

from ..workload.task import Task
from .base import Scheduler, SchedulerDecision
from .naive import StaticPlacer
from .pcmig import OnDemandMigration


class AsyncMigrationScheduler(OnDemandMigration, Scheduler):
    """Reactive predictive migrations at fixed peak frequency."""

    name = "async-migration"
    sample = "recent_w"

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
