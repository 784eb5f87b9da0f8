"""The HotPotato scheduling heuristic (paper Section V, Algorithm 2).

HotPotato maintains, per AMD ring, an ordered slot assignment of threads and
a global rotation interval ``tau``.  Its decisions are driven exclusively by
the analytic peak temperature of candidate schedules
(:class:`~repro.core.peak_temperature.PeakTemperatureCalculator`,
Algorithm 1) — no DVFS is ever used:

- **Arrival** — try rings from the lowest AMD (fastest) outward; within a
  ring evaluate every empty slot and keep the coolest; accept the first ring
  whose peak leaves the headroom ``Delta`` below ``T_DTM``.  If even the
  outermost ring is unsustainable, place there anyway, then (lines 8-14)
  migrate the *lowest-CPI* (hottest, compute-bound) threads outward and
  speed up the rotation until the schedule is sustainable or the knobs are
  exhausted (hardware DTM remains as the backstop).
- **Exit / headroom** — while more than ``Delta`` of headroom remains
  (lines 16-27), migrate the *highest-CPI* (memory-bound, benefits most
  from a low-AMD ring) threads inward as long as that stays sustainable;
  then slow the rotation stepwise — and stop rotating entirely — as long as
  the peak stays below ``T_DTM``.

The class is simulator-agnostic: callers feed it per-thread power estimates
(the 10 ms history average) and effective CPIs, and read back a
:class:`~repro.core.rotation.RotationSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import units
from ..arch.amd import AmdRings
from .peak_temperature import PeakTemperatureCalculator
from .rotation import RotationGroup, RotationSchedule, ThreadId, power_sequence

#: Rotation-interval ladder [s], slowest first.  ``None`` (appended
#: implicitly at the slow end) means rotation off.  The paper starts at
#: 0.5 ms and adjusts from there.
DEFAULT_TAU_LADDER_S: Tuple[float, ...] = (
    units.ms(4.0),
    units.ms(2.0),
    units.ms(1.0),
    units.ms(0.5),
    units.ms(0.25),
    units.ms(0.125),
)


@dataclass(frozen=True)
class ThreadInfo:
    """What HotPotato knows about one thread."""

    thread_id: ThreadId
    #: current power estimate [W] (10 ms history average, or a profile
    #: estimate on arrival)
    power_w: float
    #: effective cycles per instruction (high = memory-bound = cold)
    cpi: float

    def with_power(self, power_w: float) -> "ThreadInfo":
        """Copy with an updated power estimate."""
        return ThreadInfo(self.thread_id, power_w, self.cpi)


class HotPotato:
    """Algorithm 2: greedy thermally-safe ring assignment with rotation."""

    def __init__(
        self,
        rings: AmdRings,
        calculator: PeakTemperatureCalculator,
        t_dtm_c: float,
        headroom_delta_c: float = 1.0,
        idle_power_w: float = 0.3,
        initial_tau_s: float = units.ms(0.5),
        tau_ladder_s: Sequence[float] = DEFAULT_TAU_LADDER_S,
        max_mitigation_steps: int = 128,
    ):
        self.rings = rings
        self.calculator = calculator
        self.t_dtm_c = t_dtm_c
        self.headroom_delta_c = headroom_delta_c
        self.idle_power_w = idle_power_w
        ladder = sorted(set(tau_ladder_s), reverse=True)
        if initial_tau_s not in ladder:
            ladder.append(initial_tau_s)
            ladder.sort(reverse=True)
        #: index 0 = no rotation; larger index = faster rotation
        self._tau_ladder: List[Optional[float]] = [None] + ladder
        self._tau_index = self._tau_ladder.index(initial_tau_s)
        #: energy-relaxation bias: :meth:`_select_tau` backs off this many
        #: ladder rungs toward slower rotation (fewer migrations, less
        #: energy) from the rung it would otherwise pick.  QoS-aware
        #: callers raise it when sustained thermal headroom is observed;
        #: 0 reproduces the paper's selection exactly.
        self.tau_bias = 0
        self.max_mitigation_steps = max_mitigation_steps
        self._slots: List[List[Optional[ThreadId]]] = [
            [None] * rings.capacity(i) for i in range(rings.n_rings)
        ]
        self._threads: Dict[ThreadId, ThreadInfo] = {}
        self._location: Dict[ThreadId, Tuple[int, int]] = {}  # ring, slot
        self._ring_cores: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(rings.ring(i)) for i in range(rings.n_rings)
        )
        #: a schedule rotates iff tau is set and some ring has two cores
        self._multi_core_ring = any(len(c) > 1 for c in self._ring_cores)
        #: bumped on every slot change; keys the cached schedule
        self._version = 0
        self._schedule_key: Optional[Tuple[int, int]] = None
        self._schedule: Optional[RotationSchedule] = None

    # -- state queries ----------------------------------------------------------

    @property
    def tau_s(self) -> Optional[float]:
        """Current rotation interval (``None`` = rotation off)."""
        return self._tau_ladder[self._tau_index]

    @property
    def n_threads(self) -> int:
        """Number of threads currently scheduled."""
        return len(self._threads)

    def free_slots(self, ring: int) -> List[int]:
        """Indices of the empty slots in ``ring``."""
        return [i for i, t in enumerate(self._slots[ring]) if t is None]

    def ring_of(self, thread_id: ThreadId) -> int:
        """Ring a thread is currently assigned to."""
        return self._location[thread_id][0]

    def schedule(self) -> RotationSchedule:
        """The current chip-wide rotation schedule.

        Built and validated once per (slot assignment, tau) and cached:
        most decisions change neither.
        """
        key = (self._version, self._tau_index)
        if key != self._schedule_key:
            self._schedule = self._schedule_for(self._slots, self.tau_s)
            self._schedule_key = key
        return self._schedule

    def state_fingerprint(self) -> tuple:
        """Hashable snapshot of (tau, slot assignment) for change detection."""
        return (self._tau_index, tuple(tuple(ring) for ring in self._slots))

    def peak_temperature(self) -> float:
        """Analytic peak temperature of the current schedule."""
        return self._peak_for(self._slots, self.tau_s)

    # -- internal evaluation ---------------------------------------------------

    def _schedule_for(
        self, slots: Sequence[Sequence[Optional[ThreadId]]], tau_s: Optional[float]
    ) -> RotationSchedule:
        groups = [
            RotationGroup(self.rings.ring(i), slots[i])
            for i in range(self.rings.n_rings)
        ]
        return RotationSchedule(groups, tau_s)

    def _rotates(self, tau_s: Optional[float]) -> bool:
        """Whether a schedule with interval ``tau_s`` actually rotates."""
        return tau_s is not None and self._multi_core_ring

    def _power_seq_for(
        self, slots: Sequence[Sequence[Optional[ThreadId]]], tau_s: Optional[float]
    ) -> Tuple[np.ndarray, Optional[float]]:
        """Candidate in :meth:`PeakTemperatureCalculator.peak_batch` form:
        the periodic power sequence and the *effective* rotation interval
        (``None`` when the schedule does not actually rotate).

        Built straight from the slot lists: candidates are scored, not
        validated (only :meth:`schedule` builds a :class:`RotationSchedule`).
        """
        rotates = self._rotates(tau_s)
        powers = {t: info.power_w for t, info in self._threads.items()}
        seq = power_sequence(
            self._ring_cores,
            slots,
            rotates,
            self.rings.mesh.n_cores,
            powers,
            self.idle_power_w,
        )
        return seq, (tau_s if rotates else None)

    def _peak_for(
        self, slots: Sequence[Sequence[Optional[ThreadId]]], tau_s: Optional[float]
    ) -> float:
        seq, effective_tau = self._power_seq_for(slots, tau_s)
        return float(self.calculator.peak_batch([seq], [effective_tau])[0])

    def _sustainable(self, peak_c: float) -> bool:
        return peak_c + self.headroom_delta_c < self.t_dtm_c

    def _copy_slots(self) -> List[List[Optional[ThreadId]]]:
        return [list(ring) for ring in self._slots]

    # -- Algorithm 2: arrival -----------------------------------------------------

    def admit(self, info: ThreadInfo) -> int:
        """Place a new thread; returns the ring index it landed in.

        Implements Algorithm 2 lines 1-14.  Raises ``ValueError`` when the
        chip has no free core at all.
        """
        if info.thread_id in self._threads:
            raise ValueError(f"thread {info.thread_id} already scheduled")
        self._threads[info.thread_id] = info

        best_unsustainable: Optional[Tuple[float, int, int]] = None
        for ring in range(self.rings.n_rings):
            placement = self._best_slot_in_ring(ring, info.thread_id)
            if placement is None:
                continue
            peak_c, slot = placement
            if self._sustainable(peak_c):
                self._place(info.thread_id, ring, slot)
                return ring
            candidate = (peak_c, ring, slot)
            if best_unsustainable is None or peak_c < best_unsustainable[0]:
                best_unsustainable = candidate

        if best_unsustainable is None:
            del self._threads[info.thread_id]
            raise ValueError("no free core for the arriving thread")

        # Even the outermost ring is unsustainable: place at the coolest
        # found slot, then mitigate (lines 8-14).
        _, ring, slot = best_unsustainable
        self._place(info.thread_id, ring, slot)
        self._mitigate()
        return self.ring_of(info.thread_id)

    def _best_slot_in_ring(
        self, ring: int, thread_id: ThreadId
    ) -> Optional[Tuple[float, int]]:
        """Coolest empty slot of ``ring`` (evaluates all, Algorithm 2 line 4)."""
        free = self.free_slots(ring)
        if not free:
            return None
        # evaluate the whole slot scan as one batched candidate set: every
        # trial shares the same tau, so all of them ride one stacked einsum.
        # The candidates differ only in which free slot hosts the new
        # thread, so only the first needs a full schedule construction:
        # every other sequence is the first one with the thread's power
        # moved to the other slot's rotation track (pure assignment of the
        # same floats the full construction writes — byte-identical).
        trial = self._copy_slots()
        trial[ring][free[0]] = thread_id
        first, effective_tau = self._power_seq_for(trial, self.tau_s)
        trial[ring][free[0]] = None
        seqs: List[np.ndarray] = [first]
        taus: List[Optional[float]] = [effective_tau]
        if len(free) > 1:
            cores_arr = np.asarray(self.rings.ring(ring))
            size = cores_arr.shape[0]
            period = first.shape[0]
            epochs = np.arange(period)
            # slots only move when the candidate schedule actually rotates
            shift = epochs if effective_tau is not None else np.zeros(
                period, dtype=int
            )
            idle = float(self.idle_power_w)
            thread_power = float(self._threads[thread_id].power_w)
            first_track = cores_arr[(free[0] + shift) % size]
            for slot in free[1:]:
                seq = first.copy()
                seq[epochs, first_track] = idle
                seq[epochs, cores_arr[(slot + shift) % size]] = thread_power
                seqs.append(seq)
                taus.append(effective_tau)
        peaks = self.calculator.peak_batch(seqs, taus)
        best = int(np.argmin(peaks))  # first minimum = lowest slot index
        return (float(peaks[best]), free[best])

    def _place(self, thread_id: ThreadId, ring: int, slot: int) -> None:
        if self._slots[ring][slot] is not None:
            raise ValueError("slot already occupied")
        self._slots[ring][slot] = thread_id
        self._location[thread_id] = (ring, slot)
        self._version += 1

    def _unplace(self, thread_id: ThreadId) -> None:
        ring, slot = self._location.pop(thread_id)
        self._slots[ring][slot] = None
        self._version += 1

    def _mitigate(self) -> None:
        """Lines 8-14: outward migrations, then rotation-interval update."""
        steps = 0
        while (
            not self._sustainable(self.peak_temperature())
            and steps < self.max_mitigation_steps
        ):
            if not self._migrate_coolest_knob_outward():
                break
            steps += 1
        if not self._sustainable(self.peak_temperature()):
            self._select_tau()

    def _select_tau(self) -> None:
        """Pick the rotation interval for the current assignment.

        Rotation costs migration overhead, so among thermally equivalent
        options the *slowest* interval wins:

        - if the assignment is sustainable without rotation, rotation stops
          (Algorithm 2 lines 23-27: "rotations stop to maximize
          performance");
        - otherwise the slowest interval that achieves sustainability;
        - if no interval is sustainable (overload — DTM will backstop), the
          slowest interval within 0.5 degC of the best achievable peak, so
          hopeless extra rotation speed is never paid for.
        """
        # the assignment is fixed across the ladder, so every candidate's
        # power sequence depends only on whether it rotates (the period
        # never depends on the tau value): build at most two sequences and
        # evaluate the whole ladder as one batch
        cached: Dict[bool, Tuple[np.ndarray, Optional[float]]] = {}
        seqs: List[np.ndarray] = []
        taus: List[Optional[float]] = []
        for tau in self._tau_ladder:
            rotates = self._rotates(tau)
            if rotates not in cached:
                cached[rotates] = self._power_seq_for(self._slots, tau)
            seq, _ = cached[rotates]
            seqs.append(seq)
            taus.append(tau if rotates else None)
        peaks = self.calculator.peak_batch(seqs, taus)
        target = max(
            self.t_dtm_c - self.headroom_delta_c, float(np.min(peaks)) + 0.5
        )
        for index, peak_c in enumerate(peaks):
            if peak_c <= target:
                # the energy-relaxation bias backs off toward slower
                # rungs; it never pushes *past* the slowest choice (index
                # 0 = rotation off), and with bias 0 this is exactly the
                # paper's slowest-sustainable selection
                self._tau_index = max(0, index - max(0, int(self.tau_bias)))
                return

    def _migrate_coolest_knob_outward(self) -> bool:
        """Move the lowest-CPI (hottest) migratable thread one ring outward.

        A move is only taken when it strictly lowers the analytic peak —
        blindly pushing threads outward can otherwise pile them into an
        even denser (hotter) cluster.
        """
        current_peak = self.peak_temperature()
        by_cpi = sorted(self._threads.values(), key=lambda i: i.cpi)
        for info in by_cpi:
            ring, slot = self._location[info.thread_id]
            for target in range(ring + 1, self.rings.n_rings):
                free = self.free_slots(target)
                if not free:
                    continue
                self._unplace(info.thread_id)
                placement = self._best_slot_in_ring(target, info.thread_id)
                assert placement is not None
                peak_c, best_slot = placement
                if peak_c < current_peak - 1e-9:
                    self._place(info.thread_id, target, best_slot)
                    return True
                self._place(info.thread_id, ring, slot)  # revert
        return False

    # -- Algorithm 2: exit / headroom ------------------------------------------------

    def remove(self, thread_id: ThreadId) -> None:
        """Remove a finished thread and re-optimize (lines 15-27)."""
        if thread_id not in self._threads:
            raise KeyError(f"unknown thread {thread_id}")
        self._unplace(thread_id)
        del self._threads[thread_id]
        self.rebalance()

    def rebalance(self) -> None:
        """Consume surplus headroom: inward migrations, then slower rotation.

        Called after exits and whenever the caller observes a drastic power
        change (the paper's ``Delta`` trigger).
        """
        steps = 0
        while (
            self.t_dtm_c - self.peak_temperature() > self.headroom_delta_c
            and steps < self.max_mitigation_steps
        ):
            if not self._migrate_memory_bound_inward():
                break
            steps += 1
        # re-select the rotation interval: slow down (and eventually stop)
        # when the new headroom allows it
        self._select_tau()

    def _migrate_memory_bound_inward(self) -> bool:
        """Move the highest-CPI thread to the lowest sustainable ring."""
        by_cpi = sorted(self._threads.values(), key=lambda i: -i.cpi)
        for info in by_cpi:
            ring, slot = self._location[info.thread_id]
            for target in range(ring):  # lowest AMD first
                free = self.free_slots(target)
                if not free:
                    continue
                self._unplace(info.thread_id)
                placement = self._best_slot_in_ring(target, info.thread_id)
                assert placement is not None
                peak_c, best_slot = placement
                if peak_c < self.t_dtm_c:
                    self._place(info.thread_id, target, best_slot)
                    return True
                self._place(info.thread_id, ring, slot)  # revert
        return False

    # -- run-time refresh ----------------------------------------------------------

    def update_power(self, thread_id: ThreadId, power_w: float) -> None:
        """Refresh a thread's power estimate (10 ms history average)."""
        self._threads[thread_id] = self._threads[thread_id].with_power(power_w)

    def refresh(self) -> None:
        """React to drifted power estimates (paper's sudden-change handling).

        If the schedule became unsustainable, mitigate; if surplus headroom
        appeared, rebalance.
        """
        peak_c = self.peak_temperature()
        if not self._sustainable(peak_c):
            self._mitigate()
        elif self.t_dtm_c - peak_c > self.headroom_delta_c:
            self.rebalance()
