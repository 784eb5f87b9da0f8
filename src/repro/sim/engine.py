"""The interval thermal simulator (HotSniper analogue).

HotSniper couples the Sniper interval core simulator with HotSpot thermal
integration: execution advances in fixed intervals, each interval produces a
power map, and the thermal state advances under that (piecewise-constant)
power.  This engine reproduces that loop on top of our substrates:

1. deliver task arrivals to the scheduler;
2. obtain the scheduler's placement + frequency decision;
3. charge migration debt for every thread that moved (and the cold-start
   refill of new arrivals);
4. let per-core hardware DTM clamp frequencies where the threshold was
   crossed;
5. advance every placed thread by the instructions its core/frequency
   allows (after paying migration debt), with barrier-phase semantics;
6. build the per-core power map from each thread's compute/stall split and
   advance the RC thermal state **exactly** (matrix-exponential step — no
   integration error regardless of interval length).  The state lives in
   the eigenbasis (:class:`~repro.thermal.spectral_state.SpectralThermalState`):
   each step is an ``O(N)`` elementwise decay plus an ``O(N n)``
   steady-coefficient update, and core temperatures are projected back
   once per step and cached for every reader — no dense ``exp(C tau)``
   matrix and no linear solve in the hot loop (``docs/performance.md``);
7. fold the new core temperatures into the result's peak and time above
   ``T_DTM``, record traces/metrics, deliver completions, repeat.

The engine steps at the scheduler's preferred interval (so synchronous
rotation epochs align with simulation intervals) clipped to the configured
base interval, and lands exactly on task arrival instants.

**Observability** (``docs/observability.md``): when ``SystemConfig.obs``
enables any component (or an :class:`~repro.obs.Observer` is passed
explicitly), the loop additionally feeds a structured trace recorder
(per-interval placement/power/temperature/DTM records, rotation-epoch
boundaries, all structured events), a metrics registry (migrations per
ring, thermal-solver cache hit rates, scheduler decision latency, ...)
and wall-clock profiling hooks around the scheduler-decision,
power-map-build and thermal-step phases.  Everything is off by default;
the disabled path costs only ``None`` checks.
"""

from __future__ import annotations

import time as _time
from collections import deque
from itertools import chain
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..obs.observer import Observer
from ..sched.base import MigrationFailure, Scheduler, SchedulerDecision
from ..thermal.spectral_state import SpectralThermalState
from ..workload.task import Task
from .context import SimContext
from .dtm import DtmController
from .events import (
    DegradationChanged,
    DtmEngaged,
    DtmReleased,
    EventLog,
    MigrationFailed,
    TaskArrived,
    TaskCompleted,
    ThreadMigrated,
)
from .metrics import SimulationResult, TaskRecord, TimeBreakdown
from .migration import MigrationAccountant

#: Floating-point slack for time comparisons [s].
_TIME_EPS = 1e-12


class IntervalPlan:
    """One prepared interval, ready for its thermal step.

    The interval loop is split into *prepare* (arrivals, decision, DTM,
    execution, power map) -> *thermal step* -> *complete* (energy, traces,
    completions) so a batched driver
    (:class:`~repro.sim.batch.BatchedSimulatorSet`) can own the middle
    phase and fuse it across many simulators.  ``kind`` is ``"active"``
    for a scheduled interval or ``"idle"`` for a fast-forward gap between
    arrivals.
    """

    __slots__ = ("kind", "start_s", "dt_s", "power_w", "decision", "freqs")

    def __init__(self, kind, start_s, dt_s, power_w, decision, freqs):
        self.kind = kind
        self.start_s = start_s
        self.dt_s = dt_s
        self.power_w = power_w
        self.decision = decision
        self.freqs = freqs


class _PowerHistory:
    """Sliding-window average power per thread slot (paper: last 10 ms).

    Samples live in a ring of columns, one column per :meth:`record` call
    (one engine interval): ``_samples[col, 0, slot]`` is the slot's
    ``p * dt`` and ``_samples[col, 1, slot]`` its ``dt``, both zero where
    the slot did not record or its sample has left the window.  A slot's
    window holds its samples no older than ``window_s`` before its own
    latest sample, exactly as a per-thread deque evicting from the front
    on every append would.  The ring only overwrites a column that is
    zero for every slot, and doubles otherwise.  Admitted threads are
    placed, so record, every interval (the :class:`SchedulerDecision`
    contract), which keeps the ring about one window wide; a slot that
    stopped recording while holding samples would pin its columns and
    make the ring grow until the slot records again or is forgotten.

    **Summation order.**  The average is ``sum(p*dt) / sum(dt)`` summed
    strictly left to right, oldest sample first.  The order is part of
    the result: a last-bit difference in an average flips scheduling
    decisions downstream.  So no pairwise (``np.sum``), running or compensated (Python >= 3.12
    builtin ``sum`` over floats) summation: ``np.add.accumulate`` over the
    columns in age order is the sequential sum, and the zeros before,
    between and after a slot's samples are exact (``x + 0.0 == x``).
    The averages of all slots are computed at most once per interval, on
    the first read after a record.
    """

    def __init__(self, window_s: float, slots: int = 16, width: int = 8):
        self.window_s = window_s
        self._samples = np.zeros((width, 2, slots))
        #: start time of each column's interval (-inf: never written)
        self._time = np.full(width, -np.inf)
        #: column of the latest record
        self._col = width - 1
        #: column indices oldest first, by latest column (per ring width)
        self._orders: Dict[int, np.ndarray] = {}
        self._has = np.zeros(slots, dtype=bool)
        self._recent = np.zeros(slots)
        #: (per-slot averages, per-slot has-samples) of the current
        #: samples, or None when stale
        self._avg: Optional[Tuple[List[float], List[bool]]] = None

    def reserve(self, slots: int) -> None:
        """Make room for slot indices below ``slots``."""
        have = self._has.shape[0]
        if slots <= have:
            return
        grow = max(slots, 2 * have) - have
        self._samples = np.pad(self._samples, ((0, 0), (0, 0), (0, grow)))
        self._has = np.pad(self._has, (0, grow))
        self._recent = np.pad(self._recent, (0, grow))
        self._avg = None

    def _age_order(self) -> np.ndarray:
        """Column indices, oldest first."""
        order = self._orders.get(self._col)
        if order is None:
            width = self._time.shape[0]
            order = (np.arange(1, width + 1) + self._col) % width
            self._orders[self._col] = order
        return order

    def _widen(self) -> None:
        """Double the ring, keeping the columns in age order."""
        order = self._age_order()
        width = order.shape[0]
        self._samples = np.pad(
            self._samples.take(order, axis=0), ((0, width), (0, 0), (0, 0))
        )
        self._time = np.concatenate([self._time[order], np.full(width, -np.inf)])
        self._col = width - 1
        self._orders = {}

    def record(
        self, slots: np.ndarray, now_s: float, power_w: np.ndarray, dt_s: float
    ) -> None:
        """One interval's samples: ``power_w[i]`` for slot ``slots[i]``.

        Every slot must lie below the capacity set by :meth:`reserve`.
        """
        if now_s < self._time[self._col]:
            raise ValueError("power samples must be recorded in time order")
        col = self._col + 1
        if col == self._time.shape[0]:
            col = 0
        if np.count_nonzero(self._samples[col]):
            # the oldest column still holds a sample inside some window
            self._widen()
            col = self._col + 1
        self._col = col
        self._time[col] = now_s
        column = self._samples[col]
        column[0, slots] = power_w * dt_s
        column[1, slots] = dt_s
        # evict: the recording slots' samples older than the window
        old = np.flatnonzero(self._time < now_s - self.window_s)
        if old.size:
            self._samples[old[:, None], :, slots] = 0.0
        self._has[slots] = True
        self._recent[slots] = power_w
        self._avg = None

    def _averages(self) -> Tuple[List[float], List[bool]]:
        ordered = self._samples.take(self._age_order(), axis=0)
        energy, time = np.add.accumulate(ordered, axis=0)[-1]
        has = self._has
        # a slot without samples divides 0 by 1 (and is never read)
        self._avg = ((energy / (time + ~has)).tolist(), has.tolist())
        return self._avg

    def average(self, slot: int) -> float:
        averages, has = self._avg or self._averages()
        if not (0 <= slot < len(has) and has[slot]):
            raise KeyError(f"no power history for slot {slot}")
        return averages[slot]

    def recent(self, slot: int) -> float:
        """Most recent power sample (burst detection)."""
        if not (0 <= slot < self._has.shape[0] and self._has[slot]):
            raise KeyError(f"no power history for slot {slot}")
        return float(self._recent[slot])

    def forget(self, slot: int) -> None:
        if slot < self._has.shape[0]:
            self._samples[:, :, slot] = 0.0
            self._has[slot] = False
            self._avg = None


class _RateTable:
    """Per-(profile, frequency) rows of the per-core factors of the power map.

    Time per instruction, the compute/stall split, full-activity dynamic
    power and idle power are pure in (profile, core, f).  Each row is
    filled once by the model methods themselves, so a gathered entry is
    the value a fresh call returns, bit for bit, and the range checks of
    those methods run on every new (profile, f).  ``table[row, core]``
    holds the five factors in :data:`FACTORS` order.
    """

    FACTORS = ("tpi_s", "compute", "stall", "dynamic_w", "idle_w")

    def __init__(self, ctx: SimContext):
        self._perf = ctx.perf
        self._power = ctx.power_model
        self._n_cores = ctx.n_cores
        self._index: Dict[Tuple[int, float], int] = {}
        #: profiles by key (kept alive, so their ids stay unique)
        self._profiles: List[object] = []
        self._keys: Dict[int, int] = {}
        self.table = np.empty((0, self._n_cores, len(self.FACTORS)))

    def profile_key(self, profile) -> int:
        key = self._keys.get(id(profile))
        if key is None:
            key = self._keys[id(profile)] = len(self._profiles)
            self._profiles.append(profile)
        return key

    def rows(self, profile_keys: List[int], f_hz: List[float]) -> List[int]:
        index = self._index
        rows = []
        for key in zip(profile_keys, f_hz):
            row = index.get(key)
            if row is None:
                row = self._add(*key)
            rows.append(row)
        return rows

    def _add(self, profile_key: int, f_hz: float) -> int:
        profile = self._profiles[profile_key]
        dynamic_w = self._power.dynamic_power_w(profile.p_dyn_ref_w, f_hz, 1.0)
        idle_w = self._power.idle_power_w(f_hz)
        row = [
            (
                self._perf.time_per_instruction_s(profile, core, f_hz),
                *self._perf.activity_fractions(profile, core, f_hz),
                dynamic_w,
                idle_w,
            )
            for core in range(self._n_cores)
        ]
        self.table = np.concatenate([self.table, [row]])
        index = self._index[(profile_key, f_hz)] = len(self._index)
        return index


class IntervalSimulator:
    """Run one scheduler over one task set on one platform."""

    def __init__(
        self,
        config: SystemConfig,
        scheduler: Scheduler,
        tasks: List[Task],
        ctx: Optional[SimContext] = None,
        dtm_enabled: bool = True,
        record_events: bool = False,
        warm_start_uniform_power_w: Optional[float] = None,
        observer: Optional[Observer] = None,
    ):
        self.config = config
        self.ctx = ctx if ctx is not None else SimContext(config)
        self.scheduler = scheduler
        self.dtm_enabled = dtm_enabled
        self._pending: Deque[Task] = deque(
            sorted(tasks, key=lambda t: t.arrival_time_s)
        )
        self._running: List[Task] = []
        # per-thread state lives in arrays indexed by a thread *slot*: an
        # integer a thread takes at arrival and gives back at completion
        self._live: Dict[str, int] = {}
        self._slot_task: List[Optional[Task]] = []
        self._slot_thread: List[int] = []
        self._slot_profile: List[int] = []
        self._free_slots: List[int] = []
        #: live threads not yet in ``_breakdown``
        self._unseen = 0
        #: per-slot time stack: compute, stall, migration, wait, queued [s]
        self._time_stack = np.zeros((5, 0))
        self._history = _PowerHistory(config.power_history_window_s)
        self._rates = _RateTable(self.ctx)
        self._accountant = MigrationAccountant(self.ctx.migration)
        self._dtm = DtmController(
            self.ctx.n_cores,
            config.thermal.dtm_threshold_c,
            config.thermal.dtm_hysteresis_c,
            config.dvfs.f_min_hz,
        )
        # warm start: by default the chip has been idling long enough to
        # reach the all-idle steady state.  Passing
        # ``warm_start_uniform_power_w`` instead pre-heats the package to
        # the steady state of that uniform load — HotSniper's ROI warm-up
        # (the paper's Fig. 2 traces start near 58 degC, not at ambient).
        warm = (
            config.thermal.idle_power_w
            if warm_start_uniform_power_w is None
            else warm_start_uniform_power_w
        )
        self._state = SpectralThermalState(
            self.ctx.dynamics,
            config.thermal.ambient_c,
            self.ctx.thermal_model.steady_state(
                np.full(self.ctx.n_cores, warm), config.thermal.ambient_c
            ),
        )
        self._prev_placements: Dict[str, int] = {}
        self._sched_wall_s = 0.0
        self._sched_calls = 0
        #: fault injector (None on the fault-free fast path: every fault
        #: hook below is guarded so disabled runs stay byte-identical).
        #: Imported lazily: ``repro.faults`` consumes ``repro.sim.events``,
        #: so a module-level import here would be circular.
        if config.faults.enabled:
            from ..faults import FaultInjector

            self._injector: Optional["FaultInjector"] = FaultInjector(config)
        else:
            self._injector = None
        self._prev_degradation: Optional[str] = None
        #: observability bundle (explicit argument wins over ``config.obs``)
        self.observer: Optional[Observer] = (
            observer if observer is not None else Observer.from_config(config.obs)
        )
        self._recorder = self.observer.trace if self.observer else None
        self._metrics = self.observer.metrics if self.observer else None
        self._profiler = self.observer.profiler if self.observer else None
        #: structured event log (populated when ``record_events`` is set, or
        #: when a trace recorder needs events to subscribe to)
        record_events = record_events or self._recorder is not None
        self.events: Optional[EventLog] = EventLog() if record_events else None
        if self._recorder is not None:
            self.events.subscribe(self._recorder.record_event)
        # rotation-epoch tracker (trace recording only)
        self._obs_tau: Optional[float] = None
        self._obs_epoch = 0
        self._obs_epoch_start_s = 0.0
        self._breakdown: Dict[str, TimeBreakdown] = {}
        self.ctx.wire_observations(
            self._thread_power, self._core_temps, self._thread_recent_power
        )
        if self._injector is not None:
            self.ctx.attach_sensors(self._injector.sensors)
        self.scheduler.attach(self.ctx)

    # -- observation hooks -------------------------------------------------------

    def _core_temps(self) -> np.ndarray:
        return self._state.core_temperatures()

    def _thread_power(self, thread_id: str) -> float:
        slot = self._live.get(thread_id)
        if slot is None:
            raise KeyError(f"no power history for thread {thread_id}")
        return self._history.average(slot)

    def _thread_recent_power(self, thread_id: str) -> float:
        slot = self._live.get(thread_id)
        if slot is None:
            raise KeyError(f"no power history for thread {thread_id}")
        return self._history.recent(slot)

    # -- thread slots ------------------------------------------------------------

    def _take_slots(self, task: Task) -> None:
        """Give each thread of an arriving task a slot."""
        profile = self._rates.profile_key(task.profile)
        self._unseen += task.n_threads
        for thread in task.threads:
            if self._free_slots:
                slot = self._free_slots.pop()
            else:
                slot = len(self._slot_task)
                self._slot_task.append(None)
                self._slot_thread.append(0)
                self._slot_profile.append(0)
                if slot >= self._time_stack.shape[1]:
                    grow = max(16, self._time_stack.shape[1])
                    self._time_stack = np.pad(self._time_stack, ((0, 0), (0, grow)))
                    self._history.reserve(self._time_stack.shape[1])
            self._live[thread.thread_id] = slot
            self._slot_task[slot] = task
            self._slot_thread[slot] = thread.index
            self._slot_profile[slot] = profile

    def _settle_breakdown(self, thread_id: str, slot: int) -> None:
        """Copy a slot's time stack into the thread's TimeBreakdown."""
        stack = self._breakdown.get(thread_id)
        if stack is not None:
            (
                stack.compute_s,
                stack.stall_s,
                stack.migration_s,
                stack.wait_s,
                stack.queued_s,
            ) = self._time_stack[:, slot].tolist()

    def _release_slots(self, task: Task) -> None:
        for thread in task.threads:
            slot = self._live.pop(thread.thread_id)
            self._settle_breakdown(thread.thread_id, slot)
            self._time_stack[:, slot] = 0.0
            self._history.forget(slot)
            self._slot_task[slot] = None
            self._free_slots.append(slot)

    # -- helpers -------------------------------------------------------------------

    def _timed_scheduler_call(self, fn, *args, metric: str = "callback"):
        start = _time.perf_counter()
        result = fn(*args)
        elapsed = _time.perf_counter() - start
        self._sched_wall_s += elapsed
        self._sched_calls += 1
        if self._metrics is not None:
            self._metrics.histogram(
                f"scheduler.{metric}_latency_s", timing=True
            ).observe(elapsed)
        return result

    def _track_epoch(self, now_s: float, tau_s: Optional[float]) -> None:
        """Record rotation-epoch boundaries into the trace recorder.

        A boundary is recorded when rotation starts, when the scheduler
        changes tau (the epoch counter restarts), and whenever the current
        epoch's tau has fully elapsed.
        """
        if tau_s is None:
            self._obs_tau = None
            return
        if self._obs_tau is None or abs(tau_s - self._obs_tau) > _TIME_EPS:
            self._obs_tau = tau_s
            self._obs_epoch = 0
            self._obs_epoch_start_s = now_s
            self._recorder.record_epoch(now_s, 0, tau_s)
            return
        while now_s >= self._obs_epoch_start_s + tau_s - _TIME_EPS:
            self._obs_epoch += 1
            self._obs_epoch_start_s += tau_s
            self._recorder.record_epoch(
                self._obs_epoch_start_s, self._obs_epoch, tau_s
            )

    def _validate(self, decision: SchedulerDecision) -> None:
        live = self._live
        placed = decision.placements
        waiting = decision.waiting
        if any(thread in placed for thread in waiting):
            raise ValueError("a thread is both placed and waiting")
        if (
            len(placed) + len(waiting) != len(live)
            or not all(map(live.__contains__, placed))
            or not all(map(live.__contains__, waiting))
        ):
            accounted = set(placed) | set(waiting)
            missing = set(live) - accounted
            extra = accounted - set(live)
            raise ValueError(
                f"scheduler placement mismatch: missing={sorted(missing)[:4]} "
                f"extra={sorted(extra)[:4]}"
            )
        if len(set(placed.values())) != len(placed):
            raise ValueError("scheduler placed two threads on one core")
        if decision.frequencies.shape != (self.ctx.n_cores,):
            raise ValueError("frequency vector has wrong shape")
        if not np.isfinite(np.asarray(decision.frequencies, dtype=float)).all():
            # a NaN sensor reading that leaked through scheduler arithmetic
            # would otherwise silently poison power, energy and temperatures
            raise ValueError("scheduler produced non-finite frequencies")

    def _note_dtm_transitions(
        self, now: float, before: np.ndarray, after: np.ndarray, temps: np.ndarray
    ) -> None:
        """Events and counters for the cores DTM engaged or released."""
        if self.events is not None:
            for core in np.nonzero(after & ~before)[0]:
                self.events.record(DtmEngaged(now, int(core), float(temps[core])))
            for core in np.nonzero(before & ~after)[0]:
                self.events.record(DtmReleased(now, int(core), float(temps[core])))
        if self._metrics is not None:
            engaged = int(np.count_nonzero(after & ~before))
            released = int(np.count_nonzero(before & ~after))
            if engaged:
                self._metrics.counter("engine.dtm.engaged").inc(engaged)
            if released:
                self._metrics.counter("engine.dtm.released").inc(released)

    def _apply_faults(
        self, decision: SchedulerDecision, now_s: float
    ) -> SchedulerDecision:
        """Migration-failure repair and the graceful-degradation contract.

        Only ever called when fault injection is active.  Draws which of
        the decision's planned hops abort, lets the scheduler re-plan
        around them (:meth:`~repro.sched.base.Scheduler.repair_decision`),
        then finalizes the decision through the degradation ladder and
        emits a :class:`DegradationChanged` event on every transition.
        """
        planned = []
        for thread_id, dst in decision.placements.items():
            src = self._prev_placements.get(thread_id)
            if src is not None and src != dst:
                planned.append((thread_id, src, dst))
        failed = self._injector.migration_failures(planned)
        if failed:
            failures = [MigrationFailure(t, s, d) for t, s, d in failed]
            decision = self._timed_scheduler_call(
                self.scheduler.repair_decision,
                decision,
                failures,
                now_s,
                metric="repair",
            )
            self._validate(decision)
            if self.events is not None:
                for failure in failures:
                    self.events.record(
                        MigrationFailed(
                            now_s,
                            failure.thread_id,
                            failure.src_core,
                            failure.dst_core,
                        )
                    )
            if self._metrics is not None:
                self._metrics.counter("engine.migration_failures").inc(
                    len(failures)
                )
        decision = self.scheduler.finalize_decision(decision, now_s)
        mode = decision.degradation
        if mode is not None and mode != self._prev_degradation:
            if self.events is not None:
                self.events.record(
                    DegradationChanged(
                        now_s,
                        self.scheduler.name,
                        self._prev_degradation or "normal",
                        mode,
                        self._injector.sensors.max_staleness_s(now_s),
                    )
                )
            if self._metrics is not None:
                self._metrics.counter(f"engine.degradation.{mode}").inc()
            self._prev_degradation = mode
        return decision

    # -- main loop --------------------------------------------------------------------

    def run(self, max_time_s: float = 10.0) -> SimulationResult:
        """Simulate until all tasks finish (or ``max_time_s`` elapses)."""
        self.begin_run(max_time_s)
        return self.drive_to_completion()

    def drive_to_completion(self) -> SimulationResult:
        """Drive the phase loop until no intervals remain, then finalize.

        Requires a prior :meth:`begin_run`.  The batched driver
        calls this on a cell after detaching it from the batch — the
        re-adopted scalar state continues the run byte-identically.
        """
        while True:
            plan = self.prepare_interval()
            if plan is None:
                break
            self.step_thermal(plan)
            self.complete_interval(plan)
        return self.finalize()

    # -- phase API (run == begin_run + [prepare/step/complete]* + finalize) ---

    def begin_run(self, max_time_s: float = 10.0) -> None:
        """Phase 0: reset the per-run accumulators, take the t = 0 sample.

        The phase split (``begin_run`` -> repeated :meth:`prepare_interval`
        / :meth:`step_thermal` / :meth:`complete_interval` ->
        :meth:`finalize`) exists so
        :class:`~repro.sim.batch.BatchedSimulatorSet` can interleave many
        simulators and fuse their thermal steps; :meth:`run` drives the
        same phases for the solo case.
        """
        self._max_time_s = max_time_s
        self._run_records: List[TaskRecord] = []
        self._run_energy_j = 0.0
        #: per-core energy integral [J] (energy accounting, docs/traffic.md)
        self._energy_per_core_j = np.zeros(self.ctx.n_cores)
        #: instructions retired across all threads (J/instruction metric)
        self._instructions_retired = 0.0
        self._now = 0.0
        self._idle_power = self.ctx.power_model.idle_power_w()
        #: thermal summary of the samples so far (t = 0 and every interval
        #: end): the hottest core's running max, and the sample-and-hold
        #: gaps that start at a sample above T_DTM
        self._peak_c = -np.inf
        self._hot_gaps: List[float] = []
        self._sample_s = 0.0
        self._sample_hot = False
        self._sample_temperatures()

    def _sample_temperatures(self) -> None:
        """Fold the core temperatures at ``self._now`` into the summary."""
        hottest = float(self._core_temps().max())
        if self._sample_hot:
            self._hot_gaps.append(self._now - self._sample_s)
        self._sample_s = self._now
        self._sample_hot = hottest > self.config.thermal.dtm_threshold_c
        if hottest > self._peak_c:
            self._peak_c = hottest

    @property
    def thermal_state(self):
        """The live thermal state (scalar, or a batch-cell view)."""
        return self._state

    def adopt_thermal_state(self, state) -> None:
        """Swap the thermal state object — the batched-state injection point.

        The replacement must expose the :class:`SpectralThermalState`
        read interface (``core_temperatures``/``node_temperatures``) plus
        ``step`` when this simulator keeps driving itself; the batched
        driver installs a batch-cell view whose stepping happens in the
        fused batch instead, and re-adopts a scalar state on detach.
        """
        self._state = state

    def prepare_interval(self) -> Optional[IntervalPlan]:
        """Phases 1-6: arrivals, decision, DTM, execution, power map.

        Returns the prepared interval, or ``None`` when the run is over.
        The caller must follow with :meth:`step_thermal` (or a fused
        batch step) and :meth:`complete_interval`.
        """
        cfg = self.config
        now = self._now
        if not (
            (self._pending or self._running)
            and now < self._max_time_s - _TIME_EPS
        ):
            return None

        # 1. arrivals due now
        while self._pending and self._pending[0].arrival_time_s <= now + _TIME_EPS:
            task = self._pending.popleft()
            self._running.append(task)
            self._take_slots(task)
            self._timed_scheduler_call(
                self.scheduler.on_task_arrival, task, now
            )
            if self._metrics is not None:
                self._metrics.counter("engine.tasks.arrived").inc()
            if self.events is not None:
                self.events.record(
                    TaskArrived(
                        now,
                        task.task_id,
                        task.profile.name,
                        task.n_threads,
                        task.deadline_time_s,
                    )
                )

        if not self._running:
            # idle gap until the next arrival: fast-forward thermally
            next_arrival = self._pending[0].arrival_time_s
            gap = min(next_arrival, self._max_time_s) - now
            idle_vec = np.full(self.ctx.n_cores, self._idle_power)
            return IntervalPlan("idle", now, gap, idle_vec, None, None)

        # 2. interval length: scheduler preference, base interval, next arrival
        dt = cfg.sim_interval_s
        preferred = self.scheduler.preferred_interval_s()
        if preferred is not None:
            dt = min(dt, preferred)
        if self._pending:
            until_arrival = self._pending[0].arrival_time_s - now
            if _TIME_EPS < until_arrival < dt:
                dt = until_arrival

        # 2b. fault injection: draw this interval's fault episodes
        # against ground truth before the scheduler looks at anything
        if self._injector is not None:
            for event in self._injector.advance(now, self._core_temps()):
                if self.events is not None:
                    self.events.record(event)
            self._dtm.set_stuck(self._injector.stuck_mask())

        # 3. scheduler decision
        if self._profiler is not None:
            token = self._profiler.begin("scheduler.decide")
            decision = self._timed_scheduler_call(
                self.scheduler.decide, now, metric="decision"
            )
            self._profiler.end("scheduler.decide", token)
        else:
            decision = self._timed_scheduler_call(
                self.scheduler.decide, now, metric="decision"
            )
        self._validate(decision)
        if self._injector is not None:
            decision = self._apply_faults(decision, now)
        if self._recorder is not None:
            self._track_epoch(now, decision.tau_s)
        moves = self._accountant.charge_moves(
            self._prev_placements, decision.placements
        )
        if self.events is not None:
            for thread, src, dst in moves:
                self.events.record(
                    ThreadMigrated(
                        now,
                        thread,
                        src,
                        dst,
                        self.ctx.migration.migration_penalty_s(src, dst),
                    )
                )
        if self._metrics is not None and moves:
            self._metrics.counter("engine.migrations").inc(len(moves))
            for _, _, dst in moves:
                ring = self.ctx.rings.ring_of(dst)
                self._metrics.counter(
                    f"engine.migrations.to_ring.{ring}"
                ).inc()
        self._prev_placements = dict(decision.placements)

        # 4. DTM
        if self.dtm_enabled:
            # the throttle mask before the update only feeds events/metrics
            observed = self.events is not None or self._metrics is not None
            before = self._dtm.throttled.copy() if observed else None
            temps_now = self._core_temps()
            after = self._dtm.update(temps_now)
            if observed:
                self._note_dtm_transitions(now, before, after, temps_now)
            freqs = self._dtm.apply(decision.frequencies, dt)
        else:
            freqs = np.asarray(decision.frequencies, dtype=float)

        # 5. execution + 6. power map
        power_token = (
            self._profiler.begin("power_map.build")
            if self._profiler is not None
            else 0.0
        )
        power = self._execute(decision, freqs, now, dt)
        if self._profiler is not None:
            self._profiler.end("power_map.build", power_token)
        if self._injector is not None:
            # transient power spikes are ground truth: they heat the
            # silicon and count toward the energy budget
            power = self._injector.perturb_power(power)

        return IntervalPlan("active", now, dt, power, decision, freqs)

    def _execute(
        self, decision: SchedulerDecision, freqs: np.ndarray, now: float, dt: float
    ) -> np.ndarray:
        """Phases 5-6: advance every placed thread and build the power map.

        Vectorized over the placed threads' slot, core and rate-table
        row arrays; every element goes through the same floating-point
        operations, in the same order, as the scalar model methods
        (``time_per_instruction_s``, ``activity_fractions``,
        ``core_power_w``) would apply to that thread.  Only the task
        progress, and the instructions-retired total, advance thread by
        thread, in placement order.
        """
        power = np.full(self.ctx.n_cores, self._idle_power)
        placed = decision.placements
        stack = self._time_stack
        breakdown = self._breakdown
        if self._unseen:
            # first interval of new threads: their stacks enter the result
            # in this order (placed threads first)
            for thread_id in chain(placed, decision.waiting):
                if thread_id not in breakdown:
                    breakdown[thread_id] = TimeBreakdown()
                    self._unseen -= 1
        if decision.waiting:
            queued = [self._live[thread_id] for thread_id in decision.waiting]
            stack[4, queued] += dt
        if not placed:
            return power
        live = self._live
        slot_list = [live[thread_id] for thread_id in placed]
        core_list = list(placed.values())
        f_list = freqs.tolist()
        rows = self._rates.rows(
            [self._slot_profile[slot] for slot in slot_list],
            [f_list[core] for core in core_list],
        )
        slots, cores, rows = np.array((slot_list, core_list, rows), dtype=np.intp)
        tpi, compute_b, stall_b, dynamic_w, idle_w = self._rates.table[rows, cores].T
        exec_time = np.array(self._accountant.consume_debts(placed, dt))
        migration_time = dt - exec_time
        retired = []
        total = self._instructions_retired
        tasks, threads = self._slot_task, self._slot_thread
        for slot, wanted in zip(slot_list, (exec_time / tpi).tolist()):
            done = tasks[slot].advance(threads[slot], wanted)
            total += done
            retired.append(done)
        self._instructions_retired = total
        busy_time = np.array(retired) * tpi
        # this interval's time stack: compute, stall, migration, wait
        spent = np.empty((4, len(slot_list)))
        compute_s = np.multiply(compute_b, busy_time, out=spent[0])
        stall_s = np.multiply(stall_b, busy_time, out=spent[1])
        spent[2] = migration_time
        np.subtract(exec_time, busy_time, out=spent[3])
        # migration debt keeps the memory system busy (refills)
        thread_power = self.ctx.power_model.core_power_array(
            dynamic_w,
            idle_w,
            compute_s / dt,
            stall_s / dt + migration_time / dt,
        )
        power[cores] = thread_power
        self._history.record(slots, now, thread_power, dt)
        stack[:4, slots] += spent
        return power

    def step_thermal(self, plan: IntervalPlan) -> None:
        """Phase 7: exact thermal step (eigenbasis-resident: O(N) decay +
        O(N n) steady-coefficient update, no dense matrices)."""
        if plan.kind == "active" and self._profiler is not None:
            step_token = self._profiler.begin("thermal.step")
            self._state.step(plan.power_w, plan.dt_s)
            self._profiler.end("thermal.step", step_token)
        else:
            self._state.step(plan.power_w, plan.dt_s)

    def complete_interval(self, plan: IntervalPlan) -> None:
        """Phases 7b-8: energy/temperature accounting, barriers, completions.

        Assumes the thermal state has just advanced by ``plan.dt_s`` —
        either via :meth:`step_thermal` or a fused batch step.
        """
        cfg = self.config
        dt = plan.dt_s

        if plan.kind == "idle":
            self._run_energy_j += self._idle_power * self.ctx.n_cores * dt
            self._energy_per_core_j += plan.power_w * dt
            self._now += dt
            self._sample_temperatures()
            if self._recorder is not None:
                self._recorder.record_interval(
                    time_s=plan.start_s,
                    dt_s=dt,
                    placements={},
                    power_w=plan.power_w,
                    temps_c=self._core_temps(),
                    frequencies_hz=np.full(
                        self.ctx.n_cores, cfg.dvfs.f_max_hz
                    ),
                    dtm_throttled=np.nonzero(self._dtm.throttled)[0],
                )
            return

        decision = plan.decision
        power = plan.power_w
        self._run_energy_j += float(power.sum()) * dt
        self._energy_per_core_j += power * dt
        self._now += dt
        now = self._now
        self._sample_temperatures()
        if self._metrics is not None:
            self._metrics.counter("engine.intervals").inc()
        if self._recorder is not None:
            self._recorder.record_interval(
                time_s=plan.start_s,
                dt_s=dt,
                placements=decision.placements,
                power_w=power,
                temps_c=self._core_temps(),
                frequencies_hz=plan.freqs,
                dtm_throttled=np.nonzero(self._dtm.throttled)[0],
            )

        # 8. barriers and completions
        finished: List[Task] = []
        for task in self._running:
            task.try_advance_phase()
            if task.complete:
                finished.append(task)
        for task in finished:
            task.mark_complete(now)
            self._running.remove(task)
            for thread in task.threads:
                self._prev_placements.pop(thread.thread_id, None)
                self._accountant.forget(thread.thread_id)
            self._release_slots(task)
            self._timed_scheduler_call(
                self.scheduler.on_task_complete, task, now
            )
            if self._metrics is not None:
                self._metrics.counter("engine.tasks.completed").inc()
                # deterministic (sim-time) response-time distribution:
                # p50/p99 are published as gauges at finalize
                self._metrics.histogram("engine.response_time_s").observe(
                    now - task.arrival_time_s
                )
            self._run_records.append(
                TaskRecord(
                    task_id=task.task_id,
                    benchmark=task.profile.name,
                    n_threads=task.n_threads,
                    arrival_s=task.arrival_time_s,
                    completion_s=now,
                )
            )
            if self.events is not None:
                self.events.record(
                    TaskCompleted(
                        now,
                        task.task_id,
                        task.profile.name,
                        now - task.arrival_time_s,
                    )
                )

    def finalize(self) -> SimulationResult:
        """Publish end-of-run gauges and assemble the result."""
        if self._metrics is not None:
            for key, value in self.ctx.dynamics.cache_stats().items():
                self._metrics.gauge(f"thermal.{key}").set(value)
            for key, value in self.scheduler.metrics().items():
                self._metrics.gauge(f"sched.{key}").set(value)
            if self._injector is not None:
                for key, value in self._injector.metrics().items():
                    self._metrics.gauge(f"faults.{key}").set(value)
            # energy accounting (docs/traffic.md): total, EDP, J/instr,
            # and the per-core spread of the energy integral
            self._metrics.gauge("energy.total_j").set(self._run_energy_j)
            self._metrics.gauge("energy.edp_js").set(
                self._run_energy_j * self._now
            )
            if self._instructions_retired > 0:
                self._metrics.gauge("energy.j_per_instruction").set(
                    self._run_energy_j / self._instructions_retired
                )
            self._metrics.gauge("energy.per_core_max_j").set(
                float(np.max(self._energy_per_core_j))
            )
            self._metrics.gauge("energy.per_core_mean_j").set(
                float(np.mean(self._energy_per_core_j))
            )
            if self._run_records:
                response = self._metrics.histogram("engine.response_time_s")
                self._metrics.gauge("engine.response_time_p50_s").set(
                    response.quantile(0.5)
                )
                self._metrics.gauge("engine.response_time_p99_s").set(
                    response.quantile(0.99)
                )
        if self._recorder is not None:
            # streaming sinks persist everything recorded so far; the
            # in-memory recorder's flush is a no-op
            self._recorder.flush()
        for thread_id, slot in self._live.items():
            self._settle_breakdown(thread_id, slot)

        return SimulationResult(
            scheduler_name=self.scheduler.name,
            sim_time_s=self._now,
            peak_temperature_c=self._peak_c,
            time_above_dtm_s=float(np.sum(self._hot_gaps)),
            tasks=sorted(self._run_records, key=lambda r: r.task_id),
            dtm_triggers=self._dtm.trigger_count,
            dtm_core_time_s=self._dtm.throttled_core_time_s,
            migration_count=self._accountant.migration_count,
            migration_penalty_s=self._accountant.total_penalty_s,
            energy_j=self._run_energy_j,
            energy_per_core_j=[float(e) for e in self._energy_per_core_j],
            instructions_retired=self._instructions_retired,
            scheduler_wall_time_s=self._sched_wall_s,
            scheduler_invocations=self._sched_calls,
            time_breakdown=dict(self._breakdown),
            metrics_snapshot=(
                self._metrics.snapshot() if self._metrics is not None else {}
            ),
            profile=(
                self._profiler.summary() if self._profiler is not None else {}
            ),
        )
