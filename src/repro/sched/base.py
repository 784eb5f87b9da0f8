"""Scheduler interface.

A scheduler reacts to task arrivals and completions and, once per simulator
interval, produces a :class:`SchedulerDecision`: where every admitted thread
runs and at what frequency each core is clocked.  The engine executes the
decision, charging migration penalties for placement changes and letting
hardware DTM override frequencies when a core crosses the threshold.

**Admission queueing** (open systems, Fig. 4b): when a task arrives and the
chip lacks free cores, the base class queues it FIFO; queued tasks make no
progress (their threads are reported as ``waiting``) and are admitted as
capacity frees up.  Response time then naturally includes queueing delay.
Subclasses implement the three primitives ``_can_admit`` / ``_admit`` /
``_release`` plus ``decide``.

**Graceful degradation** (``docs/faults.md``): under fault injection,
schedulers read temperatures through :meth:`Scheduler.observed_temperatures`
(the sensor shim, never raw ground truth) and the engine passes every
decision through :meth:`Scheduler.finalize_decision`, which walks the
degradation ladder on sensor staleness — ``normal`` -> ``degraded``
(subclasses widen safety margins via :meth:`Scheduler.on_degradation_change`)
-> ``safe-park`` (all cores clamped to ``f_min`` until readings return).
Aborted migration hops come back through :meth:`Scheduler.repair_decision`,
whose base implementation pins the failed threads to their source cores and
relocates any displaced threads to free cores in AMD order.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set

import numpy as np

from ..workload.task import Task

if TYPE_CHECKING:  # import cycle: the engine imports this module
    from ..sim.context import SimContext


#: Degradation ladder, mildest first (``docs/faults.md``).
DEGRADATION_MODES = ("normal", "degraded", "safe-park")


@dataclass(frozen=True)
class MigrationFailure:
    """One aborted migration hop: the thread never left ``src_core``."""

    thread_id: str
    src_core: int
    dst_core: int


@dataclass
class SchedulerDecision:
    """One interval's placement and frequency plan."""

    #: thread id -> core id; every admitted thread must appear exactly once.
    placements: Dict[str, int]
    #: per-core frequency [Hz], shape (n_cores,).
    frequencies: np.ndarray
    #: thread ids of queued (not yet admitted) tasks.
    waiting: Set[str] = field(default_factory=set)
    #: current rotation interval for telemetry (None if not rotating).
    tau_s: Optional[float] = None
    #: free-form scheduler telemetry merged into the metrics.
    annotations: Dict[str, float] = field(default_factory=dict)
    #: degradation mode this decision was finalized under (``None`` when
    #: fault injection is off and the contract never ran).
    degradation: Optional[str] = None


class Scheduler(abc.ABC):
    """Base class for thermal-aware schedulers (with admission queueing)."""

    name: str = "scheduler"

    def __init__(self) -> None:
        self.ctx: Optional["SimContext"] = None
        self._queue: List[Task] = []
        #: thread ids of the queued tasks, or None when the queue changed
        self._waiting: Optional[Set[str]] = None
        #: current degradation mode (None until the first finalize under
        #: fault injection; stays None on the fault-free fast path)
        self._degradation_mode: Optional[str] = None
        self._migration_failure_count = 0
        self._degraded_intervals = 0
        self._parked_intervals = 0

    def attach(self, ctx: "SimContext") -> None:
        """Bind the scheduler to a platform; called once before the run."""
        self.ctx = ctx

    # -- arrival / completion with queueing ------------------------------------

    def on_task_arrival(self, task: Task, now_s: float) -> None:
        """Admit the task, or queue it if the chip is full."""
        if not self._queue and self._can_admit(task):
            self._admit(task, now_s)
        else:
            self._queue.append(task)
            self._waiting = None

    def on_task_complete(self, task: Task, now_s: float) -> None:
        """Release the task's cores, then drain the queue FIFO."""
        self._release(task, now_s)
        while self._queue and self._can_admit(self._queue[0]):
            self._admit(self._queue.pop(0), now_s)
            self._waiting = None

    def waiting_threads(self) -> Set[str]:
        """Thread ids of all queued tasks (shared until the queue changes:
        treat it as read-only)."""
        if self._waiting is None:
            self._waiting = {
                thread.thread_id for task in self._queue for thread in task.threads
            }
        return self._waiting

    @property
    def queue_length(self) -> int:
        """Number of tasks waiting for admission."""
        return len(self._queue)

    # -- subclass primitives ---------------------------------------------------

    @abc.abstractmethod
    def _can_admit(self, task: Task) -> bool:
        """True when the task's threads fit on free cores right now."""

    @abc.abstractmethod
    def _admit(self, task: Task, now_s: float) -> None:
        """Place the task's threads."""

    @abc.abstractmethod
    def _release(self, task: Task, now_s: float) -> None:
        """Free the task's cores."""

    @abc.abstractmethod
    def decide(self, now_s: float) -> SchedulerDecision:
        """Produce the placement/frequency plan for the next interval."""

    def preferred_interval_s(self) -> Optional[float]:
        """Step size the scheduler wants the engine to use (None = default).

        Rotating schedulers return their rotation interval so that epoch
        boundaries align with simulation intervals.
        """
        return None

    # -- sensor readings and graceful degradation ------------------------------

    def observed_temperatures(self) -> np.ndarray:
        """Core temperatures as this scheduler is allowed to see them.

        With perfect sensors (no fault injection) this is the ground
        truth; under fault injection it is the sensor shim's view — noisy,
        biased, possibly latched, with dropouts already replaced by the
        last-known-good reading per core.  The result is always finite:
        NaN/Inf never leak into scheduler arithmetic.
        """
        sensors = self.ctx.sensors
        if sensors is None:
            return self.ctx.core_temperatures_c()
        return sensors.observed()

    @property
    def degradation_mode(self) -> Optional[str]:
        """Current rung of the degradation ladder (None = contract inactive)."""
        return self._degradation_mode

    def finalize_decision(
        self, decision: SchedulerDecision, now_s: float
    ) -> SchedulerDecision:
        """Engine hook: apply the graceful-degradation contract.

        Runs after :meth:`decide` (and after any migration repair) when
        fault injection is active.  Sensor staleness selects the mode:

        - ``normal`` — readings are fresh; nothing changes;
        - ``degraded`` — readings are stale beyond
          ``faults.degraded_staleness_s``; subclasses react in
          :meth:`on_degradation_change` (HotPotato widens its Algorithm-1
          margin ``delta``) while running on last-known-good readings;
        - ``safe-park`` — readings are stale beyond
          ``faults.park_staleness_s``; every core is clamped to ``f_min``
          until the sensors recover (placements are untouched, so threads
          crawl instead of stopping).
        """
        sensors = self.ctx.sensors if self.ctx is not None else None
        if sensors is None:
            return decision
        faults = self.ctx.config.faults
        staleness = sensors.max_staleness_s(now_s)
        if staleness >= faults.park_staleness_s:
            mode = "safe-park"
        elif staleness >= faults.degraded_staleness_s:
            mode = "degraded"
        else:
            mode = "normal"
        previous = self._degradation_mode
        if mode != previous:
            self._degradation_mode = mode
            if previous is not None or mode != "normal":
                self.on_degradation_change(previous or "normal", mode, now_s)
        if mode == "degraded":
            self._degraded_intervals += 1
        elif mode == "safe-park":
            self._parked_intervals += 1
            f_min = self.ctx.config.dvfs.f_min_hz
            decision.frequencies = np.minimum(decision.frequencies, f_min)
        decision.degradation = mode
        decision.annotations["sensor_staleness_s"] = staleness
        return decision

    def on_degradation_change(
        self, old_mode: str, new_mode: str, now_s: float
    ) -> None:
        """Hook: the degradation ladder moved.  Default: no reaction."""

    def _core_preference_order(self) -> List[int]:
        """All cores in placement-preference (ascending AMD) order."""
        amd = np.asarray(self.ctx.rings.amd, dtype=float)
        return [int(c) for c in np.lexsort((np.arange(len(amd)), amd))]

    def repair_decision(
        self,
        decision: SchedulerDecision,
        failures: List[MigrationFailure],
        now_s: float,
    ) -> SchedulerDecision:
        """Engine hook: re-plan after aborted migration hops.

        Every failed thread stays pinned on its source core; any other
        thread the decision had routed onto one of those (now still
        occupied) source cores is displaced to the best free core in AMD
        order.  The repair preserves the placement count, so it is always
        feasible.  Subclasses that keep their own placement state sync it
        in :meth:`on_migration_failure`.
        """
        pinned = {f.thread_id: f.src_core for f in failures}
        taken = set(pinned.values())
        repaired: Dict[str, int] = {}
        displaced: List[str] = []
        for thread, core in decision.placements.items():
            if thread in pinned:
                repaired[thread] = pinned[thread]
            elif core in taken:
                displaced.append(thread)
            else:
                repaired[thread] = core
                taken.add(core)
        free = [c for c in self._core_preference_order() if c not in taken]
        for thread in sorted(displaced):
            core = free.pop(0)
            repaired[thread] = core
            taken.add(core)
        decision.placements = repaired
        self._migration_failure_count += len(failures)
        self.on_migration_failure(failures, repaired, now_s)
        return decision

    def on_migration_failure(
        self,
        failures: List[MigrationFailure],
        placements: Dict[str, int],
        now_s: float,
    ) -> None:
        """Hook: hops aborted and ``placements`` is the repaired plan.

        Subclasses with internal placement state (placers, rotation
        schedules) bring it back in line with reality here.  Default: no
        reaction.
        """

    # -- observability ---------------------------------------------------------

    def metrics(self) -> Mapping[str, float]:
        """Internal counters this scheduler publishes at run end.

        When the engine runs with a metrics registry
        (``SystemConfig.obs.metrics``, see ``docs/observability.md``), each
        returned entry becomes a ``sched.<key>`` gauge in the result's
        metrics snapshot.  The base implementation reports the admission
        queue depth; subclasses should extend this dict with their own
        decision counters (rotation epochs, refreshes, migration triggers).
        """
        data = {"queue_length": float(self.queue_length)}
        if self._degradation_mode is not None:
            data["degradation_mode"] = float(
                DEGRADATION_MODES.index(self._degradation_mode)
            )
            data["degraded_intervals"] = float(self._degraded_intervals)
            data["parked_intervals"] = float(self._parked_intervals)
        if self._migration_failure_count:
            data["migration_failures"] = float(self._migration_failure_count)
        return data
