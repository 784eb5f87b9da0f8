"""Rotation schedules: who runs where at which epoch.

A :class:`RotationGroup` is one AMD ring with an ordered list of slots, one
per ring core.  A slot holds a thread id or ``None`` (idle core).  Under
synchronous rotation with epoch length ``tau``, the occupant of slot ``j``
executes on ring core ``cores[(j + k) % len(cores)]`` during epoch ``k`` —
after ``len(cores)`` epochs every thread has visited every core of its ring
and is back where it started (the paper's rotation period ``delta``).

A :class:`RotationSchedule` combines the groups of all rings and answers the
two questions the system asks:

- the simulator asks *"which core does thread t occupy at epoch k?"*;
- the peak-temperature method asks *"what is the per-core power vector of
  each epoch of one full period?"* (the global period is the lcm of ring
  sizes, so the pattern is truly periodic).
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

ThreadId = str


class RotationGroup:
    """One ring's slot assignment."""

    def __init__(self, cores: Sequence[int], slots: Sequence[Optional[ThreadId]]):
        if len(cores) < 1:
            raise ValueError("a rotation group needs at least one core")
        if len(slots) != len(cores):
            raise ValueError("need exactly one slot per core")
        if len(set(cores)) != len(cores):
            raise ValueError("duplicate cores in rotation group")
        occupied = [s for s in slots if s is not None]
        if len(set(occupied)) != len(occupied):
            raise ValueError("a thread appears in multiple slots")
        self.cores: Tuple[int, ...] = tuple(cores)
        self.slots: Tuple[Optional[ThreadId], ...] = tuple(slots)

    @property
    def size(self) -> int:
        """Ring size = rotation period of this group (in epochs)."""
        return len(self.cores)

    @property
    def threads(self) -> Tuple[ThreadId, ...]:
        """Occupied slots in slot order."""
        return tuple(s for s in self.slots if s is not None)

    def core_of_slot(self, slot: int, epoch: int) -> int:
        """Core hosting ``slot`` at rotation ``epoch``."""
        return self.cores[(slot + epoch) % self.size]

    def occupancy_at(self, epoch: int) -> Dict[int, ThreadId]:
        """Mapping core -> thread for one epoch (idle cores omitted)."""
        result = {}
        for slot, thread in enumerate(self.slots):
            if thread is not None:
                result[self.core_of_slot(slot, epoch)] = thread
        return result


def power_sequence(
    ring_cores: Sequence[Sequence[int]],
    ring_slots: Sequence[Sequence[Optional[ThreadId]]],
    rotating: bool,
    n_cores: int,
    thread_power_w: Mapping[ThreadId, float],
    idle_power_w: float,
) -> np.ndarray:
    """Per-epoch per-core power over one period of raw slot lists.

    The unvalidated form of :meth:`RotationSchedule.power_sequence`:
    ``ring_cores[i]`` and ``ring_slots[i]`` are one ring's cores and slot
    occupants, and ``rotating`` says whether the slots shift each epoch.
    Schedulers scoring many candidate assignments call this directly
    instead of building (and validating) a schedule per candidate.
    """
    # one pass over the slots: every occupied slot becomes a track (the
    # flat-core offset of its ring, its slot, the ring size, its power)
    offsets, slot_idx, sizes, values, occupied = [], [], [], [], []
    offset = 0
    for cores, slots in zip(ring_cores, ring_slots):
        size = len(cores)
        before = len(values)
        for slot, thread in enumerate(slots):
            if thread is not None:
                offsets.append(offset)
                slot_idx.append(slot)
                sizes.append(size)
                values.append(float(thread_power_w[thread]))
        if len(values) > before:
            occupied.append(size)
        offset += size
    period = reduce(math.lcm, occupied, 1) if rotating else 1
    seq = np.full((period, n_cores), float(idle_power_w))
    if values:
        # track j sits on core cores[(slot + k) % size] at epoch k: gather
        # the whole period of every track at once.  Pure assignment of the
        # same float64 values a scalar loop would write (rings are
        # disjoint, so no two tracks share an (epoch, core) cell).
        flat = np.fromiter(chain.from_iterable(ring_cores), dtype=np.intp)
        epochs = np.arange(period)
        positions = np.array(offsets)[:, None] + (
            np.array(slot_idx)[:, None] + epochs
        ) % np.array(sizes)[:, None]
        seq[epochs, flat[positions]] = np.array(values)[:, None]
    return seq


class RotationSchedule:
    """Complete chip schedule: one group per occupied ring plus ``tau``.

    ``tau_s = None`` encodes rotation switched off (threads pinned to the
    epoch-0 placement) — the terminal state of Algorithm 2 when the workload
    is thermally sustainable without rotation.

    A schedule is immutable and validated once, on construction; the
    placement of each epoch of the period is computed on first request and
    cached (callers receive a copy).
    """

    def __init__(self, groups: Sequence[RotationGroup], tau_s: Optional[float]):
        if tau_s is not None and tau_s <= 0:
            raise ValueError("tau must be positive (or None for no rotation)")
        seen_cores: set = set()
        seen_threads: set = set()
        for group in groups:
            if seen_cores.intersection(group.cores):
                raise ValueError("rotation groups overlap in cores")
            seen_cores.update(group.cores)
            threads = set(group.threads)
            if seen_threads.intersection(threads):
                raise ValueError("a thread appears in multiple groups")
            seen_threads.update(threads)
        self.groups: Tuple[RotationGroup, ...] = tuple(groups)
        self.tau_s = tau_s
        self._rotating = tau_s is not None and any(g.size > 1 for g in self.groups)
        self._period = (
            reduce(math.lcm, [g.size for g in self.groups if g.threads], 1)
            if self._rotating
            else 1
        )
        #: epoch mod period -> placement of that epoch
        self._placements: Dict[int, Dict[ThreadId, int]] = {}

    @property
    def rotating(self) -> bool:
        """True when synchronous rotation is active."""
        return self._rotating

    @property
    def period_epochs(self) -> int:
        """Global period: lcm of the occupied ring sizes (1 if static)."""
        return self._period

    def threads(self) -> Tuple[ThreadId, ...]:
        """All scheduled threads."""
        return tuple(t for g in self.groups for t in g.threads)

    def placement_at(self, epoch: int) -> Dict[ThreadId, int]:
        """Mapping thread -> core at rotation ``epoch`` (a fresh copy)."""
        phase = epoch % self._period
        placement = self._placements.get(phase)
        if placement is None:
            # every occupied ring's size divides the period, so epoch and
            # epoch mod period put each slot on the same core
            placement = {}
            for group in self.groups:
                for core, thread in group.occupancy_at(phase).items():
                    placement[thread] = core
            self._placements[phase] = placement
        return dict(placement)

    def power_sequence(
        self,
        n_cores: int,
        thread_power_w: Mapping[ThreadId, float],
        idle_power_w: float,
    ) -> np.ndarray:
        """Per-epoch per-core power over one full period, shape
        ``(period_epochs, n_cores)``.

        ``thread_power_w`` supplies each thread's power draw (the
        scheduler's 10 ms history average, or a profile estimate for new
        threads).  Cores outside any group and empty slots burn idle power.
        """
        return power_sequence(
            [g.cores for g in self.groups],
            [g.slots for g in self.groups],
            self._rotating,
            n_cores,
            thread_power_w,
            idle_power_w,
        )

    def migrations_between(
        self, epoch_a: int, epoch_b: int
    ) -> List[Tuple[ThreadId, int, int]]:
        """Thread moves from ``epoch_a`` to ``epoch_b`` as ``(thread, src, dst)``."""
        place_a = self.placement_at(epoch_a)
        place_b = self.placement_at(epoch_b)
        moves = []
        for thread, src in place_a.items():
            dst = place_b.get(thread)
            if dst is not None and dst != src:
                moves.append((thread, src, dst))
        return moves
