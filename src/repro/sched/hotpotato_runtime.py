"""HotPotato glued into the interval simulator.

The pure heuristic lives in :mod:`repro.core.hotpotato`; this adapter feeds
it what the paper says it consumes at run time — per-thread power history
(10 ms window) and effective CPI — and translates its
:class:`~repro.core.rotation.RotationSchedule` into per-interval placements.

**Algorithm 2 step mapping** — where each phase of the paper's pseudocode
lives in this adapter (and the heuristic it drives):

=====================  ==========================================================
paper Algorithm 2      implementation
=====================  ==========================================================
lines 1-7 (arrival:    :meth:`HotPotatoScheduler._admit` →
ring search)           :meth:`repro.core.hotpotato.HotPotato.admit` — try rings
                       lowest-AMD outward, keep the coolest empty slot, accept
                       the first ring with ``T_peak + Delta < T_DTM``
lines 8-14 (arrival:   ``HotPotato.admit`` mitigation branch — place at the
mitigation)            coolest candidate anyway, migrate lowest-CPI (hottest)
                       threads outward, re-select tau
lines 15-22 (exit:     :meth:`HotPotatoScheduler._release` →
headroom rebalance)    :meth:`repro.core.hotpotato.HotPotato.remove` — migrate
                       highest-CPI (memory-bound) threads inward while the
                       analytic peak stays sustainable
lines 23-27 (tau       ``HotPotato`` tau re-selection — rotation *off* when
selection)             statically sustainable, else the slowest sustainable tau
run-time feedback      :meth:`HotPotatoScheduler._refresh_estimates` — 10 ms
(Section V, ``Delta``  power-history averages read each interval as one slot
sudden-change)         vector; drift > 1 W against the last re-optimization's
                       estimates triggers
                       :meth:`repro.core.hotpotato.HotPotato.refresh`
epoch advance          :meth:`HotPotatoScheduler._advance_epoch` +
(Section IV rotation)  ``RotationSchedule.placement_at`` — cyclic shift of each
                       ring's slot assignment once per tau
=====================  ==========================================================

Power estimates for *arriving* threads (no history yet) are the profile's
peak power, i.e. deliberately conservative; once history accumulates, the
estimates relax to the observed duty-cycled average and the paper's
"sudden change" trigger (``Delta``) re-optimizes the assignment.

The estimates are captured every decision but pushed into
:class:`~repro.core.hotpotato.HotPotato` only before a call that reads
them (refresh, admission, removal, the analytic peak): those see exactly
the values of the latest decision, as if every decision had pushed them.

HotPotato never touches DVFS: every core always runs at f_max (hardware DTM
remains the backstop the analytics are designed to keep silent).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from ..core.hotpotato import HotPotato, ThreadInfo
from ..sim.context import PowerWindow
from ..workload.task import Task
from .base import Scheduler, SchedulerDecision

#: Power-estimate drift [W] that triggers a re-optimization.
_POWER_DRIFT_TRIGGER_W = 1.0
#: Minimum spacing between drift-triggered refreshes [epochs].
_REFRESH_SPACING = 8
#: Widening factor applied to the Algorithm-1 margin ``delta`` while the
#: sensor bus is degraded: stale power/temperature inputs mean the analytic
#: peak is computed against yesterday's chip, so the safety margin grows.
_DEGRADED_HEADROOM_FACTOR = 3.0


class HotPotatoScheduler(Scheduler):
    """The paper's scheduler: synchronous thread rotation, no DVFS."""

    name = "hotpotato"

    def __init__(
        self,
        headroom_delta_c: Optional[float] = None,
        initial_tau_s: Optional[float] = None,
    ) -> None:
        super().__init__()
        self._headroom_override = headroom_delta_c
        self._tau_override = initial_tau_s
        self.hotpotato: Optional[HotPotato] = None
        self._profiles: Dict[str, object] = {}
        self._epoch = 0
        self._epoch_started_s = 0.0
        self._intervals_since_refresh = 0
        #: HotPotato's threads in admission order, and their engine slots
        self._thread_ids: List[str] = []
        self._thread_slots = np.zeros(0, dtype=np.intp)
        #: per-thread power estimate HotPotato last *re-optimized* with;
        #: drift is measured against this snapshot, not the last interval.
        self._power_at_refresh = np.zeros(0)
        #: per-thread estimate of the latest decision, and whether
        #: HotPotato still holds older values
        self._estimates = np.zeros(0)
        self._unpushed = False
        #: True once a refresh changed nothing — skip further refreshes
        #: until arrivals/exits or estimate drift dirty the state again.
        self._settled = False
        #: every core at f_max (read-only, shared by every decision)
        self._f_max: Optional[np.ndarray] = None
        #: (inputs, schedule key, waiting set, placements) of the last
        #: full decision, while a repeat provably decides the same
        self._memo: Optional[tuple] = None
        #: observability counters (published via :meth:`metrics`)
        self._refresh_count = 0
        self._urgent_refresh_count = 0
        self._decide_reused = 0

    def attach(self, ctx) -> None:
        super().attach(ctx)
        self._f_max = np.full(ctx.n_cores, ctx.config.dvfs.f_max_hz)
        self._f_max.flags.writeable = False
        thermal = ctx.config.thermal
        self._nominal_headroom_c = (
            self._headroom_override
            if self._headroom_override is not None
            else thermal.headroom_delta_c
        )
        self.hotpotato = HotPotato(
            ctx.rings,
            ctx.calculator,
            t_dtm_c=thermal.dtm_threshold_c,
            headroom_delta_c=self._nominal_headroom_c,
            idle_power_w=thermal.idle_power_w,
            initial_tau_s=(
                self._tau_override
                if self._tau_override is not None
                else ctx.config.rotation_interval_s
            ),
        )

    # -- arrival / completion ------------------------------------------------------

    def _arrival_estimate(self, task: Task) -> ThreadInfo:
        """Conservative ThreadInfo for a thread with no history yet."""
        profile = task.profile
        reference_core = self.ctx.rings.ring(0)[0]
        power = self.ctx.power_model.max_core_power_w(profile.p_dyn_ref_w)
        cpi = self.ctx.perf.effective_cpi(profile, reference_core)
        return ThreadInfo("", power, cpi)

    def _can_admit(self, task: Task) -> bool:
        return self.hotpotato.n_free_slots >= task.n_threads

    def _synced(self) -> HotPotato:
        """HotPotato, holding the estimates of the latest decision."""
        if self._unpushed:
            self.hotpotato.update_powers(self._thread_ids, self._estimates.tolist())
            self._unpushed = False
        return self.hotpotato

    def _admit(self, task: Task, now_s: float) -> None:
        template = self._arrival_estimate(task)
        hotpotato = self._synced()
        ids = [thread.thread_id for thread in task.threads]
        for thread_id in ids:
            hotpotato.admit(ThreadInfo(thread_id, template.power_w, template.cpi))
            self._profiles[thread_id] = task.profile
        self._thread_ids.extend(ids)
        self._thread_slots = np.concatenate(
            [self._thread_slots, self.ctx.thread_slots(ids)]
        )
        arrival = np.full(len(ids), template.power_w)
        self._power_at_refresh = np.concatenate([self._power_at_refresh, arrival])
        self._estimates = np.concatenate([self._estimates, arrival])
        self._settled = False
        self._memo = None

    def _release(self, task: Task, now_s: float) -> None:
        hotpotato = self._synced()
        gone = set()
        for thread in task.threads:
            hotpotato.remove(thread.thread_id)
            self._profiles.pop(thread.thread_id, None)
            gone.add(thread.thread_id)
        keep = [thread_id not in gone for thread_id in self._thread_ids]
        self._thread_ids = [t for t, k in zip(self._thread_ids, keep) if k]
        self._thread_slots = self._thread_slots[keep]
        self._power_at_refresh = self._power_at_refresh[keep]
        self._estimates = self._estimates[keep]
        self._settled = False
        self._memo = None

    # -- per-interval ----------------------------------------------------------------

    def preferred_interval_s(self) -> Optional[float]:
        tau = self.hotpotato.tau_s
        return tau

    def _advance_epoch(self, now_s: float) -> None:
        tau = self.hotpotato.tau_s
        if tau is None:
            self._epoch_started_s = now_s
            return
        while now_s >= self._epoch_started_s + tau - 1e-12:
            self._epoch += 1
            self._epoch_started_s += tau

    def _measured_power(self, window: PowerWindow) -> np.ndarray:
        """The power signal fed into HotPotato's analytics, per thread.

        The paper's signal: the plain 10 ms window average.  Rotation
        budgets against time-averaged heat, so burst power must NOT be
        used here — averaging bursts across the ring is precisely the
        mechanism.  DTM backstops estimate lag.  Subclasses that apply
        DVFS override this to refer the measurement back to f_max,
        keeping the analytic peak frequency-independent.
        """
        return window.average_w[self._thread_slots]

    def _refresh_estimates(self, known: np.ndarray, measured: np.ndarray) -> bool:
        """Feed measured power back; re-optimize on drastic drift.

        Drift is measured against the estimates in force at the last
        re-optimization (the paper's sudden-change trigger ``Delta``), so a
        slow ramp still accumulates into a refresh.  Threads without
        history yet (``known`` false) keep their estimates.  Returns
        whether the state is settled with a drift of at most 0.5 W left
        against the same inputs: then neither trigger can fire on them.
        """
        self._intervals_since_refresh += 1
        drift = np.abs(
            measured - self._power_at_refresh,
            where=known,
            out=np.zeros(known.shape[0]),
        )
        max_drift = float(drift.max(initial=0.0))
        self._estimates = np.where(known, measured, self._estimates)
        self._unpushed = True
        if max_drift > 0.5:
            self._settled = False
        # a drastic power increase is acted upon immediately (the paper's
        # Delta trigger); routine re-optimization is rate-limited
        urgent = (
            max_drift > _POWER_DRIFT_TRIGGER_W
            and self._intervals_since_refresh >= 2
        )
        routine = (
            not self._settled
            and self._intervals_since_refresh >= _REFRESH_SPACING
        )
        if not (urgent or routine):
            return self._settled
        before = self.hotpotato.state_fingerprint()
        self._synced().refresh()
        self._refresh_count += 1
        if urgent:
            self._urgent_refresh_count += 1
        self._intervals_since_refresh = 0
        # the known threads' drift against the same inputs is now zero
        self._power_at_refresh = np.where(known, measured, self._power_at_refresh)
        self._settled = self.hotpotato.state_fingerprint() == before
        return self._settled

    def decide(self, now_s: float) -> SchedulerDecision:
        """The current rotation epoch's placements, every core at f_max.

        After a full decision left the state settled, without rotation
        and with at most 0.5 W of drift, a decision with byte-equal inputs
        (measured power, has-history mask, thread slots), schedule key
        and waiting set takes no refresh and changes only the three
        fields advanced below, so it reuses the placements.  Admission,
        release, degradation changes and migration failures drop the memo.
        """
        window = self.ctx.power_window()
        known = window.has_history[self._thread_slots]
        measured = self._measured_power(window)
        inputs = (measured.tobytes(), known.tobytes(), self._thread_slots.tobytes())
        waiting = self.waiting_threads()
        memo = self._memo
        if (
            memo is not None
            and memo[0] == inputs
            and memo[1] == self.hotpotato.schedule_key
            and memo[2] is waiting
        ):
            self._intervals_since_refresh += 1
            self._unpushed = True
            self._epoch_started_s = now_s
            self._decide_reused += 1
            return SchedulerDecision(
                placements=memo[3], frequencies=self._f_max, waiting=waiting
            )
        quiet = self._refresh_estimates(known, measured)
        self._advance_epoch(now_s)
        placements = self.hotpotato.schedule().placement_at(self._epoch)
        tau = self.hotpotato.tau_s
        self._memo = (
            (inputs, self.hotpotato.schedule_key, waiting, placements)
            if quiet and tau is None
            else None
        )
        return SchedulerDecision(
            placements=placements,
            frequencies=self._f_max,
            waiting=waiting,
            tau_s=tau,
        )

    # -- graceful degradation --------------------------------------------------

    def on_degradation_change(
        self, old_mode: str, new_mode: str, now_s: float
    ) -> None:
        """Widen the Algorithm-1 margin ``delta`` while sensors are stale.

        In ``degraded`` (and ``safe-park``) mode the 10 ms power window
        and the temperature feedback HotPotato plans against are
        last-known-good values; multiplying the headroom by
        ``_DEGRADED_HEADROOM_FACTOR`` makes the analytic ``T_peak + delta
        < T_DTM`` admission test conservative against that staleness.  The
        nominal margin is restored as soon as readings are fresh again,
        and either way the very next interval re-optimizes.
        """
        if self.hotpotato is None:
            return
        if new_mode == "normal":
            self.hotpotato.headroom_delta_c = self._nominal_headroom_c
        else:
            self.hotpotato.headroom_delta_c = (
                self._nominal_headroom_c * _DEGRADED_HEADROOM_FACTOR
            )
        # force a prompt re-optimization under the new margin
        self._settled = False
        self._intervals_since_refresh = _REFRESH_SPACING
        self._memo = None

    def on_migration_failure(self, failures, placements, now_s: float) -> None:
        """An aborted hop left reality out of step with the rotation.

        The rotation schedule itself stays valid (it re-issues the
        intended slot assignment next epoch, so the thread simply retries
        the hop); marking the state unsettled makes the next routine
        refresh re-check sustainability against what actually happened.
        """
        self._settled = False
        self._memo = None

    def metrics(self) -> Mapping[str, float]:
        """Rotation/refresh counters for the observability snapshot."""
        data = dict(super().metrics())
        data["rotation_epochs"] = float(self._epoch)
        data["refreshes"] = float(self._refresh_count)
        data["urgent_refreshes"] = float(self._urgent_refresh_count)
        # decisions served from the last full one (``sched.decide_reused``)
        data["decide_reused"] = float(self._decide_reused)
        tau = self.hotpotato.tau_s if self.hotpotato is not None else None
        data["rotation_active"] = 1.0 if tau is not None else 0.0
        if tau is not None:
            data["tau_s"] = float(tau)
        if self.hotpotato is not None:
            # Algorithm-1 evaluator health: alpha/beta/peak-memo cache
            # counters and batch widths (surface as ``sched.alg1.*`` gauges)
            for key, value in self.hotpotato.calculator.cache_stats().items():
                data[f"alg1.{key}"] = float(value)
            # certified scan screen: target rings screened, and how many the
            # bound settled without Algorithm 1 (``sched.screen.*`` gauges)
            data["screen.pairs"] = float(self.hotpotato.screen_pairs)
            data["screen.skipped"] = float(self.hotpotato.screen_skipped)
            # tests of the incumbent's own peak the ring tables settled,
            # and those that fell back to Algorithm 1
            data["screen.incumbent"] = float(self.hotpotato.screen_incumbent)
            data["screen.incumbent_exact"] = float(
                self.hotpotato.screen_incumbent_exact
            )
            # coolest-slot choices the ring tables settled, and those that
            # fell back to Algorithm 1 on the slots they could not separate
            data["screen.slot"] = float(self.hotpotato.screen_slot)
            data["screen.slot_exact"] = float(self.hotpotato.screen_slot_exact)
        return data
