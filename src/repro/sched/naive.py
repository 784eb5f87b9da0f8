"""Naive baseline schedulers.

- :class:`PeakFrequencyScheduler` — performance-greedy static placement at
  maximum frequency with **no** thermal management beyond hardware DTM.
  This is the "thermally unsustainable" reference of Fig. 2(a).
- :class:`StaticPlacer` — the shared placement policy: threads of arriving
  tasks go to the free cores with the lowest AMD (best S-NUCA performance),
  ties broken by core id.  PCGov/PCMig reuse it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..workload.task import Task
from .base import Scheduler, SchedulerDecision


class StaticPlacer:
    """Lowest-AMD-first assignment of threads to free cores."""

    def __init__(self, amd: np.ndarray):
        self._amd = np.asarray(amd, dtype=float)
        self._order = np.lexsort((np.arange(len(amd)), self._amd)).tolist()
        self._occupant: Dict[int, str] = {}
        #: bumped on every change of the assignment
        self.version = 0
        self._slot_arrays: Optional[Tuple[int, np.ndarray, np.ndarray]] = None
        self._free: Optional[Tuple[int, Tuple[int, ...]]] = None

    @property
    def placements(self) -> Dict[str, int]:
        """Current thread -> core mapping."""
        return {thread: core for core, thread in self._occupant.items()}

    def slot_arrays(self, ctx) -> Tuple[np.ndarray, np.ndarray]:
        """The placed threads' engine slots (see
        :meth:`~repro.sim.context.SimContext.thread_slots`) and their
        cores, as two aligned arrays; rebuilt only when the assignment
        changed."""
        if self._slot_arrays is None or self._slot_arrays[0] != self.version:
            placements = self.placements
            cores = np.fromiter(placements.values(), np.intp, len(placements))
            self._slot_arrays = (self.version, ctx.thread_slots(placements), cores)
        return self._slot_arrays[1:]

    def occupied_cores(self) -> List[int]:
        """Cores currently holding a thread."""
        return sorted(self._occupant)

    def free_cores(self) -> List[int]:
        """Free cores in placement-preference (ascending AMD) order (a
        fresh list; listed once per assignment version)."""
        if self._free is None or self._free[0] != self.version:
            occupant = self._occupant
            free = tuple(core for core in self._order if core not in occupant)
            self._free = (self.version, free)
        return list(self._free[1])

    def place_task(self, task: Task) -> None:
        """Assign every thread of ``task`` to the best free cores."""
        free = self.free_cores()
        if len(free) < task.n_threads:
            raise ValueError(
                f"not enough free cores for task {task.task_id} "
                f"({task.n_threads} needed, {len(free)} free)"
            )
        for thread, core in zip(task.threads, free):
            self._occupant[core] = thread.thread_id
        self.version += 1

    def release_task(self, task: Task) -> None:
        """Free the cores of a finished task."""
        ids = {thread.thread_id for thread in task.threads}
        self._occupant = {
            core: thread
            for core, thread in self._occupant.items()
            if thread not in ids
        }
        self.version += 1

    def move(self, thread_id: str, dst_core: int) -> None:
        """Relocate one thread to a free core."""
        if dst_core in self._occupant:
            raise ValueError(f"core {dst_core} is occupied")
        src = next(
            core for core, t in self._occupant.items() if t == thread_id
        )
        del self._occupant[src]
        self._occupant[dst_core] = thread_id
        self.version += 1

    def core_of(self, thread_id: str) -> int:
        """Core currently hosting ``thread_id``."""
        for core, thread in self._occupant.items():
            if thread == thread_id:
                return core
        raise KeyError(thread_id)

    def sync(self, placements: Dict[str, int]) -> None:
        """Overwrite the assignment wholesale (migration-failure repair).

        The engine's repaired placement map is authoritative after an
        aborted hop; rebuilding beats replaying individual moves, which
        could transiently collide.
        """
        occupant: Dict[int, str] = {}
        for thread, core in placements.items():
            if core in occupant:
                raise ValueError(f"core {core} assigned twice in sync")
            occupant[core] = thread
        self._occupant = occupant
        self.version += 1


class PeakFrequencyScheduler(Scheduler):
    """Everything at f_max, static lowest-AMD placement, DTM-only safety."""

    name = "peak-frequency"

    def __init__(self) -> None:
        super().__init__()
        self._placer: Optional[StaticPlacer] = None

    def attach(self, ctx) -> None:
        super().attach(ctx)
        self._placer = StaticPlacer(ctx.rings.amd)

    def _can_admit(self, task: Task) -> bool:
        return len(self._placer.free_cores()) >= task.n_threads

    def _admit(self, task: Task, now_s: float) -> None:
        self._placer.place_task(task)

    def _release(self, task: Task, now_s: float) -> None:
        self._placer.release_task(task)

    def decide(self, now_s: float) -> SchedulerDecision:
        freqs = np.full(self.ctx.n_cores, self.ctx.config.dvfs.f_max_hz)
        return SchedulerDecision(
            placements=dict(self._placer.placements),
            frequencies=freqs,
            waiting=self.waiting_threads(),
        )
