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

**Certified scan screen.**  Boundary temperatures are linear in the power
sequence (Eq. 10), so a candidate that moves one thread is the incumbent's
boundary temperatures plus that thread's excess power over idle times the
response of its new ring slot, minus the response of its old one.  The
responses come from design-time ring tables
(:meth:`~repro.core.peak_temperature.PeakTemperatureCalculator.ring_responses`).
Every scan screens each free slot of a target ring once.  It takes from
them a lower bound, ``SCREEN_MARGIN_C`` below the coolest screened value,
on the coolest slot of the ring, and skips the ring when that bound already
fails the scan's acceptance test.  A slot screened more than ``2
SCREEN_MARGIN_C`` above the coolest is certainly not the coolest, so the
coolest-slot choice is settled from the tables when one slot is that close
and it passes the test at the top of its band; otherwise Algorithm 1 runs
on the ring's near slots only.  ``SCREEN_MARGIN_C`` dominates the proven
rounding error of both evaluations (:meth:`HotPotato.screen_error_bound`),
so every decision is the one the unscreened scan takes.

**Incumbent from the tables.**  The same linearity scores the current
schedule itself: its boundary rise is the idle chip's rise plus one product
of the per-slot excess powers (kept up to date by every placement and power
update) with the flat table of a rung, cached per (slot version, power
version).  The peak tests of ``refresh``, ``rebalance`` and the mitigation
loop, ``_select_tau``'s exit and ladder choice, and the outward scan's
``current peak - 1e-9`` threshold read that screened peak, and each falls
back to Algorithm 1 only when its threshold lies within ``SCREEN_MARGIN_C``
of it (:meth:`HotPotato.incumbent_error_bound` proves the margin holds), so
again every decision is the exact one.  :meth:`HotPotato.peak_temperature`
itself stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import units
from ..arch.amd import AmdRings
from ..thermal.rc_model import gamma
from .peak_temperature import PeakTemperatureCalculator
from .rotation import (
    RotationGroup,
    RotationSchedule,
    ThreadId,
    power_sequence,
    ring_tracks,
)

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

#: Distance [degC] the screen keeps below its screened peak.  It dominates
#: :meth:`HotPotato.screen_error_bound` on table1 (about 5e-11 degC with
#: rotation, 1.2e-9 degC without) by 800x or more; ``docs/performance.md``
#: derives it.
SCREEN_MARGIN_C = 1e-6


@dataclass(frozen=True)
class ThreadInfo:
    """What HotPotato knows about one thread."""

    thread_id: ThreadId
    #: current power estimate [W] (10 ms history average, or a profile
    #: estimate on arrival)
    power_w: float
    #: effective cycles per instruction (high = memory-bound = cold)
    cpi: float


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
        self.max_mitigation_steps = max_mitigation_steps
        self._slots: List[List[Optional[ThreadId]]] = [
            [None] * rings.capacity(i) for i in range(rings.n_rings)
        ]
        #: per-thread power estimate [W] and CPI, in admission order
        #: (:class:`ThreadInfo` is built only at the API edge)
        self._power: Dict[ThreadId, float] = {}
        self._cpi: Dict[ThreadId, float] = {}
        #: thread ids by ascending and descending CPI, or None if stale
        self._by_cpi: Optional[Tuple[List[ThreadId], List[ThreadId]]] = None
        #: (slot version, free slots of every ring) of the last listing
        self._free: Optional[Tuple[int, List[Tuple[int, ...]]]] = None
        self._location: Dict[ThreadId, Tuple[int, int]] = {}  # ring, slot
        self._ring_cores: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(rings.ring(i)) for i in range(rings.n_rings)
        )
        #: track[offset + slot, epoch] = core of that ring slot at epoch
        self._tracks, _, self._ring_offsets = ring_tracks(
            self._ring_cores, rings.mesh.n_cores
        )
        #: a schedule rotates iff tau is set and some ring has two cores
        self._multi_core_ring = any(len(c) > 1 for c in self._ring_cores)
        # screen tables per effective tau of the ladder (design time), one
        # flat table each, and the table row each slot's track reaches in
        # every epoch of the lcm horizon: rows[offset + u, e] = offset +
        # (u + e) mod size
        horizon = self._tracks.shape[1]
        self._tables: Dict[Optional[float], np.ndarray] = {}
        for tau in self._tau_ladder:
            effective = self._effective_tau(tau)
            if effective not in self._tables:
                self._tables[effective] = calculator.ring_responses(
                    self._ring_cores, effective
                )
        epochs = np.arange(horizon)
        self._track_rows = np.concatenate(
            [
                offset + (np.arange(len(cores))[:, None] + epochs) % len(cores)
                for offset, cores in zip(self._ring_offsets, self._ring_cores)
            ]
        )
        # the incumbent from the tables: every flat slot's excess power over
        # idle, and the circulant gather that lines the slots up with the
        # table rows: circulant[e, j] is the slot whose track is on row j in
        # epoch e, rows[j, -e mod horizon]
        self._excess = np.zeros(self._tracks.shape[0])
        self._circulant = self._track_rows[:, -epochs % horizon].T
        #: idle chip's boundary rise per effective tau (built on first use)
        self._idle_rises: Dict[Optional[float], np.ndarray] = {}
        #: incumbent rise per effective tau, valid for _rise_key
        self._rises: Dict[Optional[float], np.ndarray] = {}
        self._rise_key: Optional[Tuple[int, int]] = None
        #: bumped on every power change of a placed thread
        self._power_version = 0
        #: screened (thread, ring) pairs and admission rings, and how many
        #: of them the bound settled without Algorithm 1
        self.screen_pairs = 0
        self.screen_skipped = 0
        #: tests of the incumbent's own peak the tables settled, and those
        #: that fell back to Algorithm 1
        self.screen_incumbent = 0
        self.screen_incumbent_exact = 0
        #: coolest-slot choices the tables settled, those that fell back to
        #: Algorithm 1 on the near set, and the near-set evaluations of
        #: admission's overflow path (no ring sustainable)
        self.screen_slot = 0
        self.screen_slot_exact = 0
        self.screen_overflow_exact = 0
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
        return len(self._cpi)

    @property
    def n_free_slots(self) -> int:
        """Number of empty slots over all rings."""
        return sum(map(len, self._free_by_ring()))

    def free_slots(self, ring: int) -> List[int]:
        """Indices of the empty slots in ``ring``."""
        return list(self._free_by_ring()[ring])

    def thread_ids(self) -> List[ThreadId]:
        """Scheduled threads, in admission order."""
        return list(self._cpi)

    def thread_info(self, thread_id: ThreadId) -> ThreadInfo:
        """What HotPotato currently knows about ``thread_id``."""
        return ThreadInfo(thread_id, self._power[thread_id], self._cpi[thread_id])

    def ring_of(self, thread_id: ThreadId) -> int:
        """Ring a thread is currently assigned to."""
        return self._location[thread_id][0]

    @property
    def schedule_key(self) -> Tuple[int, int]:
        """(slot version, tau index), which keys :meth:`schedule`."""
        return (self._version, self._tau_index)

    def schedule(self) -> RotationSchedule:
        """The current chip-wide rotation schedule.

        Built and validated once per (slot assignment, tau) and cached:
        most decisions change neither.
        """
        key = self.schedule_key
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
        seq = power_sequence(
            self._ring_cores,
            slots,
            rotates,
            self.rings.mesh.n_cores,
            self._power,
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

    def _free_by_ring(self) -> List[Tuple[int, ...]]:
        """The empty slots of every ring, listed once per slot version."""
        if self._free is None or self._free[0] != self._version:
            free = [
                tuple(i for i, t in enumerate(ring) if t is None)
                for ring in self._slots
            ]
            self._free = (self._version, free)
        return self._free[1]

    def _cpi_orders(self) -> Tuple[List[ThreadId], List[ThreadId]]:
        """Thread ids by ascending and by descending CPI, ties in
        admission order; sorted once per membership."""
        if self._by_cpi is None:
            cpi = self._cpi
            self._by_cpi = (
                sorted(cpi, key=cpi.__getitem__),
                sorted(cpi, key=lambda t: -cpi[t]),
            )
        return self._by_cpi

    def _enroll(self, info: ThreadInfo) -> None:
        """Add a thread's estimates (not yet placed)."""
        self._power[info.thread_id] = info.power_w
        self._cpi[info.thread_id] = info.cpi
        self._by_cpi = None

    def _drop(self, thread_id: ThreadId) -> None:
        """Forget an (unplaced) thread's estimates."""
        del self._power[thread_id], self._cpi[thread_id]
        self._by_cpi = None

    # -- certified scan screen ---------------------------------------------------

    def _effective_tau(self, tau_s: Optional[float]) -> Optional[float]:
        """``tau_s`` if a schedule with it rotates, else ``None``."""
        return tau_s if self._rotates(tau_s) else None

    def _idle_rise(self, effective_tau: Optional[float]) -> np.ndarray:
        """Boundary rise of the idle chip (every core at idle power),
        ``(n_cores,)``: one evaluation per effective tau, then cached."""
        rise = self._idle_rises.get(effective_tau)
        if rise is None:
            uniform = np.full((1, self.rings.mesh.n_cores), float(self.idle_power_w))
            rise = self.calculator.boundary_rise(uniform, effective_tau)[0]
            self._idle_rises[effective_tau] = rise
        return rise

    def _incumbent_rise(self, effective_tau: Optional[float]) -> np.ndarray:
        """The current slots' boundary rise from the ring tables, over the
        lcm horizon (one row without rotation), read-only.

        Boundary rise is linear in the power sequence (Eq. 10): the idle
        chip's rise plus, per flat slot, its excess power times its track's
        response.  The circulant gather lines each slot's excess up with
        the table row its track reaches in every epoch, so one matmul sums
        all rings.  Cached per (slot version, power version).
        """
        key = (self._version, self._power_version)
        if key != self._rise_key:
            self._rises = {}
            self._rise_key = key
        rise = self._rises.get(effective_tau)
        if rise is None:
            if effective_tau is None:
                excess = self._excess[None]
            else:
                excess = self._excess[self._circulant]
            table = self._tables[effective_tau]
            rise = self._idle_rise(effective_tau) + excess @ table
            rise.flags.writeable = False
            self._rises[effective_tau] = rise
        return rise

    def _screened_incumbent(self, effective_tau: Optional[float]) -> float:
        """Screened peak [degC] of the current slots at ``effective_tau``."""
        rise = self._incumbent_rise(effective_tau)
        return float(rise.max()) + self.calculator.ambient_c

    def _peak_below(self, test: Callable[[float], bool]) -> bool:
        """``test(peak)`` of the current schedule's Algorithm-1 peak.

        ``test`` must hold for every peak below one that passes it.  The
        screened peak settles it when the test agrees at both ends of the
        ``SCREEN_MARGIN_C`` band around it; otherwise Algorithm 1 does.
        """
        screened = self._screened_incumbent(self._effective_tau(self.tau_s))
        if test(screened + SCREEN_MARGIN_C):
            self.screen_incumbent += 1
            return True
        if not test(screened - SCREEN_MARGIN_C):
            self.screen_incumbent += 1
            return False
        self.screen_incumbent_exact += 1
        return test(self.peak_temperature())

    def _has_surplus(self, peak_c: float) -> bool:
        """Whether more than the headroom ``Delta`` remains below T_DTM."""
        return self.t_dtm_c - peak_c > self.headroom_delta_c

    def _screen_base(self) -> Tuple[np.ndarray, Optional[float]]:
        """The current slots' boundary rise over the lcm horizon (one row
        without rotation), and their effective rotation interval."""
        effective_tau = self._effective_tau(self.tau_s)
        return self._incumbent_rise(effective_tau), effective_tau

    def _slot_response(
        self, effective_tau: Optional[float], ring: int, slots
    ) -> np.ndarray:
        """Response to 1 W on each of ``slots`` of ``ring``, ``(F, H, n)``
        (``H = 1`` without rotation: the row of the slot's own core)."""
        rows = self._track_rows[self._ring_offsets[ring] + np.asarray(slots)]
        if effective_tau is None:
            rows = rows[:, :1]
        return self._tables[effective_tau][rows]

    def _without(
        self, base: np.ndarray, effective_tau: Optional[float], thread_id: ThreadId
    ) -> np.ndarray:
        """``base`` with ``thread_id``'s excess power taken off its slot."""
        ring, slot = self._location[thread_id]
        excess = self._power[thread_id] - self.idle_power_w
        return base - excess * self._slot_response(effective_tau, ring, [slot])[0]

    def _screen(
        self,
        base: np.ndarray,
        effective_tau: Optional[float],
        thread_id: ThreadId,
        ring: int,
        free: List[int],
    ) -> Tuple[float, float, List[int]]:
        """Screen ``thread_id`` into each of the ``free`` slots of ``ring``,
        added to ``base`` (which excludes the thread).

        Returns the certified lower bound [degC] on the coolest-slot peak
        that :meth:`_best_slot_in_ring` returns for the same candidates,
        the screened peak of the coolest slot, and the *near set*: the
        slots screened within ``2 SCREEN_MARGIN_C`` of the coolest, in slot
        order.  Every screened peak is within the margin of its exact one,
        so a slot outside the near set is certainly hotter than the coolest
        exact peak, and the exact first minimum lies in the near set.
        """
        self.screen_pairs += 1
        excess = self._power[thread_id] - self.idle_power_w
        candidates = base + excess * self._slot_response(effective_tau, ring, free)
        rises = candidates.max(axis=(1, 2))
        coolest = float(np.min(rises))
        close = np.flatnonzero(rises - coolest <= 2 * SCREEN_MARGIN_C)
        near = [free[i] for i in close]
        screened = coolest + self.calculator.ambient_c
        return screened - SCREEN_MARGIN_C, screened, near

    def _incumbent_rise_error(self, effective_tau: Optional[float]) -> float:
        """Proven bound [degC] on every entry of :meth:`_incumbent_rise`
        against its real-arithmetic value, the reference of
        :meth:`~repro.core.peak_temperature.PeakTemperatureCalculator.forward_error_bound`.

        Each input errs by its own evaluation's bound: the idle rise by
        that of the uniform map, each ring's table rows by that of the
        ring's unit tracks, weighted by the ring's ``sum |x|`` (every
        output entry takes one row per slot).  The matmul over ``S`` slots
        and the idle sum round ``S + 1`` times, at most ``gamma_{S+1}
        (|idle| + sum |x| |R|)``.
        """
        calc = self.calculator
        n_cores = self.rings.mesh.n_cores
        uniform = np.full((1, n_cores), float(self.idle_power_w))
        unit = np.eye(n_cores)
        table = self._tables[effective_tau]
        error = calc.forward_error_bound(uniform, effective_tau)
        magnitude = float(np.max(np.abs(self._idle_rise(effective_tau))))
        for offset, cores in zip(self._ring_offsets, self._ring_cores):
            rows = slice(offset, offset + len(cores))
            excess = float(np.sum(np.abs(self._excess[rows])))
            if excess:
                tracks = unit[list(cores)]
                error += excess * calc.forward_error_bound(tracks, effective_tau)
                magnitude += excess * float(np.max(np.abs(table[rows])))
        return error + gamma(self._excess.shape[0] + 1) * magnitude

    def incumbent_error_bound(self) -> float:
        """Proven bound [degC] on |screened - Algorithm-1 peak| of the
        current schedule (what :meth:`_peak_below` settles with).

        The table evaluation's entrywise bound
        (:meth:`_incumbent_rise_error`) plus the exact evaluation's
        :meth:`~repro.core.peak_temperature.PeakTemperatureCalculator.forward_error_bound`;
        each side then adds ambient once.  The 1 % slack covers the
        bound's own evaluation.
        """
        u = np.finfo(float).eps / 2
        seq, effective_tau = self._power_seq_for(self._slots, self.tau_s)
        error = self._incumbent_rise_error(effective_tau)
        error += self.calculator.forward_error_bound(seq, effective_tau)
        magnitude = float(np.max(np.abs(self._incumbent_rise(effective_tau))))
        error += 2 * u * (magnitude + abs(self.calculator.ambient_c))
        return 1.01 * error

    def screen_error_bound(self, thread_id: ThreadId, ring: int, slot: int) -> float:
        """Proven bound [degC] on |screened - Algorithm-1 peak| of moving
        ``thread_id`` (or, unplaced, adding it) to ``slot`` of ``ring``.

        The screen adds the incumbent's rise from the tables and the
        excess power ``x`` times one or two table rows; the incumbent errs
        by :meth:`_incumbent_rise_error`, and rows and candidate by their
        evaluations'
        :meth:`~repro.core.peak_temperature.PeakTemperatureCalculator.forward_error_bound`.
        The screen's own arithmetic rounds ``x`` once, its two products
        and two sums once each, and adds ambient once, as the exact peak
        does.  The 1 % slack covers the bound's own evaluation.
        """
        u = np.finfo(float).eps / 2
        calc = self.calculator
        effective_tau = self._effective_tau(self.tau_s)
        excess = abs(self._power[thread_id] - self.idle_power_w)
        unit = np.eye(self.rings.mesh.n_cores)
        rings = [ring]
        trial = self._copy_slots()
        if thread_id in self._location:
            old_ring, old_slot = self._location[thread_id]
            rings.append(old_ring)
            trial[old_ring][old_slot] = None
        trial[ring][slot] = thread_id
        candidate, _ = self._power_seq_for(trial, self.tau_s)
        base = self._incumbent_rise(effective_tau)
        error = self._incumbent_rise_error(effective_tau)
        error += calc.forward_error_bound(candidate, effective_tau)
        magnitude = float(np.max(np.abs(base)))
        table = self._tables[effective_tau]
        for r in rings:
            cores = self._ring_cores[r]
            offset = self._ring_offsets[r]
            tracks = unit[list(cores)]
            response = float(np.max(np.abs(table[offset : offset + len(cores)])))
            error += excess * calc.forward_error_bound(tracks, effective_tau)
            error += u * excess * response
            magnitude += excess * response
        error += 4 * u * magnitude + 2 * u * (magnitude + abs(calc.ambient_c))
        return 1.01 * error

    # -- Algorithm 2: arrival -----------------------------------------------------

    def admit(self, info: ThreadInfo) -> int:
        """Place a new thread; returns the ring index it landed in.

        Implements Algorithm 2 lines 1-14.  Raises ``ValueError`` when the
        chip has no free core at all.
        """
        if info.thread_id in self._cpi:
            raise ValueError(f"thread {info.thread_id} already scheduled")
        free = self._free_by_ring()
        if not any(free):
            raise ValueError("no free core for the arriving thread")
        self._enroll(info)

        # rings in order: the first sustainable one wins.  A ring whose
        # screen bound is already unsustainable is deferred, not evaluated;
        # one with a lone near slot sustainable at the top of its band is
        # taken without Algorithm 1.
        base, effective_tau = self._screen_base()
        exact: Dict[int, Tuple[float, int]] = {}
        deferred: Dict[int, Tuple[float, List[int]]] = {}
        for ring in range(self.rings.n_rings):
            if not free[ring]:
                continue
            bound, screened, near = self._screen(
                base, effective_tau, info.thread_id, ring, free[ring]
            )
            if not self._sustainable(bound):
                deferred[ring] = (bound, near)
                continue
            if len(near) == 1 and self._sustainable(screened + SCREEN_MARGIN_C):
                self.screen_slot += 1
                self.screen_skipped += len(deferred)
                self._place(info.thread_id, ring, near[0])
                return ring
            self.screen_slot_exact += 1
            peak_c, slot = self._best_slot_in_ring(ring, info.thread_id, near)
            if self._sustainable(peak_c):
                self.screen_skipped += len(deferred)
                self._place(info.thread_id, ring, slot)
                return ring
            exact[ring] = (peak_c, slot)

        # Even the outermost ring is unsustainable: place at the coolest
        # slot (the first ring reaching it), then mitigate (lines 8-14).  A
        # deferred ring needs Algorithm 1 only while its bound could still
        # undercut the coolest ring so far.
        best: Optional[Tuple[float, int, int]] = None
        for ring in range(self.rings.n_rings):
            if ring in exact:
                peak_c, slot = exact[ring]
            elif ring in deferred:
                bound, near = deferred[ring]
                if best is not None and bound >= best[0]:
                    self.screen_skipped += 1
                    continue
                self.screen_overflow_exact += 1
                peak_c, slot = self._best_slot_in_ring(ring, info.thread_id, near)
            else:
                continue
            if best is None or peak_c < best[0]:
                best = (peak_c, ring, slot)
        _, ring, slot = best
        self._place(info.thread_id, ring, slot)
        self._mitigate()
        return self.ring_of(info.thread_id)

    def _best_slot_in_ring(
        self, ring: int, thread_id: ThreadId, slots: List[int]
    ) -> Tuple[float, int]:
        """Coolest of the (non-empty, free) ``slots`` of ``ring``, the first
        in slot order on a tie (evaluates all, Algorithm 2 line 4).

        Callers pass a scan's near set (:meth:`_screen`), which holds
        every free slot that can be the coolest: a candidate's peak does
        not depend on which others share its batch, so the result is the
        one over all free slots.
        """
        # evaluate the whole slot scan as one batched candidate set: every
        # trial shares the same tau, so all of them ride one stacked einsum.
        # The candidates differ only in which slot hosts the new
        # thread, so only the first needs a full schedule construction:
        # every other sequence is the first one with the thread's power
        # moved to the other slot's rotation track (pure assignment of the
        # same floats the full construction writes — byte-identical).  A
        # static candidate has a one-epoch period, whose track column is
        # epoch 0 — the slot's own core.
        trial = self._copy_slots()
        trial[ring][slots[0]] = thread_id
        first, effective_tau = self._power_seq_for(trial, self.tau_s)
        seqs: List[np.ndarray] = [first]
        taus: List[Optional[float]] = [effective_tau]
        if len(slots) > 1:
            period = first.shape[0]
            epochs = np.arange(period)
            rows = self._ring_offsets[ring] + np.asarray(slots)
            tracks = self._tracks[rows, :period]
            idle = float(self.idle_power_w)
            thread_power = float(self._power[thread_id])
            for track in tracks[1:]:
                seq = first.copy()
                seq[epochs, tracks[0]] = idle
                seq[epochs, track] = thread_power
                seqs.append(seq)
                taus.append(effective_tau)
        peaks = self.calculator.peak_batch(seqs, taus)
        best = int(np.argmin(peaks))  # first minimum = lowest slot index
        return (float(peaks[best]), slots[best])

    def _place(self, thread_id: ThreadId, ring: int, slot: int) -> None:
        if self._slots[ring][slot] is not None:
            raise ValueError("slot already occupied")
        self._slots[ring][slot] = thread_id
        self._location[thread_id] = (ring, slot)
        excess = self._power[thread_id] - self.idle_power_w
        self._excess[self._ring_offsets[ring] + slot] = excess
        self._version += 1

    def _unplace(self, thread_id: ThreadId) -> None:
        ring, slot = self._location.pop(thread_id)
        self._slots[ring][slot] = None
        self._excess[self._ring_offsets[ring] + slot] = 0.0
        self._version += 1

    def _mitigate(self) -> None:
        """Lines 8-14: outward migrations, then rotation-interval update."""
        steps = 0
        while (
            not self._peak_below(self._sustainable)
            and steps < self.max_mitigation_steps
        ):
            if not self._migrate_coolest_knob_outward():
                break
            steps += 1
        if not self._peak_below(self._sustainable):
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
        # Rotation off comes first: when it alone leaves the headroom,
        # it is the choice (the target below is at least T_DTM - Delta),
        # and the rotating rungs need no evaluation.  The screened peaks
        # settle the choice when every comparison it takes holds across
        # the margin; otherwise Algorithm 1 scores the ladder.
        floor_c = self.t_dtm_c - self.headroom_delta_c
        static_c = self._screened_incumbent(None)
        if static_c + SCREEN_MARGIN_C <= floor_c:
            index: Optional[int] = 0
        else:
            screened = [static_c] + [
                self._screened_incumbent(self._effective_tau(tau))
                for tau in self._tau_ladder[1:]
            ]
            index = self._certain_rung(np.array(screened), floor_c)
        if index is not None:
            self.screen_incumbent += 1
            self._tau_index = index
            return
        # one Algorithm-1 call scores the whole ladder, rotation off
        # included: when it alone leaves the headroom it is picked, since
        # the target is at least T_DTM - Delta.  The assignment is fixed
        # across the ladder and the period never depends on the tau value,
        # so every rotating rung shares one sequence; each rung is its own
        # one-candidate (tau, delta) group
        self.screen_incumbent_exact += 1
        static_seq, _ = self._power_seq_for(self._slots, None)
        seqs: List[np.ndarray] = [static_seq]
        taus: List[Optional[float]] = [None]
        rungs = self._tau_ladder[1:]
        if self._multi_core_ring:
            seq, _ = self._power_seq_for(self._slots, rungs[0])
            seqs += [seq] * len(rungs)
            taus += rungs
        peaks = self.calculator.peak_batch(seqs, taus)
        if not self._multi_core_ring:
            peaks = np.full(len(self._tau_ladder), peaks[0])
        target = max(floor_c, float(np.min(peaks)) + 0.5)
        for index, peak_c in enumerate(peaks):
            if peak_c <= target:
                self._tau_index = index
                return

    @staticmethod
    def _certain_rung(screened: np.ndarray, floor_c: float) -> Optional[int]:
        """The ladder choice for every set of peaks within
        ``SCREEN_MARGIN_C`` of ``screened``, or ``None`` if it may differ.

        The target ``max(floor, min + 0.5)`` lies between its values at
        the band's lower and upper ends; a rung is certainly at or below
        it when its upper end is at or below the lower target, and
        certainly above it when its lower end is above the upper target.
        """
        low = screened - SCREEN_MARGIN_C
        high = screened + SCREEN_MARGIN_C
        target_low = max(floor_c, float(np.min(low)) + 0.5)
        target_high = max(floor_c, float(np.min(high)) + 0.5)
        for index in range(screened.shape[0]):
            if high[index] <= target_low:
                return index
            if low[index] <= target_high:
                return None
        return None

    def _migrate_coolest_knob_outward(self) -> bool:
        """Move the lowest-CPI (hottest) migratable thread one ring outward.

        A move is only taken when it strictly lowers the analytic peak —
        blindly pushing threads outward can otherwise pile them into an
        even denser (hotter) cluster.
        """
        current_c = self._screened_incumbent(self._effective_tau(self.tau_s))
        n_rings = self.rings.n_rings
        incumbent = self._copy_slots()
        return self._move_first(
            self._cpi_orders()[0],
            lambda ring: range(ring + 1, n_rings),
            current_c - 1e-9,
            lambda: self._peak_for(incumbent, self.tau_s) - 1e-9,
        )

    def _move_first(
        self,
        by_cpi: List[ThreadId],
        targets: Callable[[int], range],
        threshold_c: float,
        exact_threshold: Optional[Callable[[], float]] = None,
    ) -> bool:
        """Move the first thread of ``by_cpi`` that has a target ring
        (``targets(its ring)``, in order) whose coolest free slot peaks
        below the threshold; returns whether a move was taken.

        The threshold is ``threshold_c``, or, with ``exact_threshold``,
        the value that callable returns, which lies within
        ``SCREEN_MARGIN_C`` of the screened ``threshold_c``; it is called
        only for a peak inside that band.  The screen settles every
        (thread, ring) pair whose bound already reaches the threshold, and
        takes a pair whose near set is one slot that stays below the
        threshold at the top of its band; Algorithm 1 scores the near set
        of the rest.  Free slots are listed once per call: they change
        only when a move is taken.
        """
        low_c = high_c = threshold_c
        if exact_threshold is not None:
            low_c, high_c = threshold_c - SCREEN_MARGIN_C, threshold_c + SCREEN_MARGIN_C
            exact_c: Optional[float] = None
        free = self._free_by_ring()
        incumbent: Optional[np.ndarray] = None
        for thread_id in by_cpi:
            ring, slot = self._location[thread_id]
            base: Optional[np.ndarray] = None
            for target in targets(ring):
                if not free[target]:
                    continue
                if incumbent is None:
                    incumbent, effective_tau = self._screen_base()
                if base is None:
                    base = self._without(incumbent, effective_tau, thread_id)
                bound, screened, near = self._screen(
                    base, effective_tau, thread_id, target, free[target]
                )
                if bound >= high_c:
                    self.screen_skipped += 1
                    continue
                self._unplace(thread_id)
                if len(near) == 1 and screened + SCREEN_MARGIN_C < low_c:
                    self.screen_slot += 1
                    if exact_threshold is not None:
                        self.screen_incumbent += 1
                    self._place(thread_id, target, near[0])
                    return True
                self.screen_slot_exact += 1
                peak_c, best_slot = self._best_slot_in_ring(
                    target, thread_id, near
                )
                if exact_threshold is None:
                    accept = peak_c < threshold_c
                elif low_c <= peak_c < high_c:
                    if exact_c is None:
                        self.screen_incumbent_exact += 1
                        exact_c = exact_threshold()
                    accept = peak_c < exact_c
                else:
                    self.screen_incumbent += 1
                    accept = peak_c < low_c
                if accept:
                    self._place(thread_id, target, best_slot)
                    return True
                self._place(thread_id, ring, slot)  # revert
        return False

    # -- Algorithm 2: exit / headroom ------------------------------------------------

    def remove(self, thread_id: ThreadId) -> None:
        """Remove a finished thread and re-optimize (lines 15-27)."""
        if thread_id not in self._cpi:
            raise KeyError(f"unknown thread {thread_id}")
        self._unplace(thread_id)
        self._drop(thread_id)
        self.rebalance()

    def rebalance(self) -> None:
        """Consume surplus headroom: inward migrations, then slower rotation.

        Called after exits and whenever the caller observes a drastic power
        change (the paper's ``Delta`` trigger).
        """
        steps = 0
        while (
            self._peak_below(self._has_surplus)
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
        # lowest AMD first
        return self._move_first(self._cpi_orders()[1], range, self.t_dtm_c)

    # -- run-time refresh ----------------------------------------------------------

    def update_power(self, thread_id: ThreadId, power_w: float) -> None:
        """Refresh a thread's power estimate (10 ms history average)."""
        self.update_powers([thread_id], [power_w])

    def update_powers(
        self, thread_ids: Sequence[ThreadId], powers: Sequence[float]
    ) -> None:
        """Refresh the power estimates of several threads: one scatter of
        the placed threads' excess powers and one power-version bump."""
        estimates = self._power
        flat: List[int] = []
        placed: List[float] = []
        for thread_id, power_w in zip(thread_ids, powers):
            if thread_id not in estimates:
                raise KeyError(thread_id)
            estimates[thread_id] = power_w
            location = self._location.get(thread_id)
            if location is not None:
                flat.append(self._ring_offsets[location[0]] + location[1])
                placed.append(power_w)
        if flat:
            self._excess[flat] = np.array(placed) - self.idle_power_w
            self._power_version += 1

    def refresh(self) -> None:
        """React to drifted power estimates (paper's sudden-change handling).

        If the schedule became unsustainable, mitigate; if surplus headroom
        appeared, rebalance.
        """
        if not self._peak_below(self._sustainable):
            self._mitigate()
        elif self._peak_below(self._has_surplus):
            self.rebalance()
