"""Tasks and threads: the dynamic execution state of a workload.

A :class:`Task` is one multi-threaded benchmark instance progressing through
its phase list (see :mod:`repro.workload.phases`).  Phase semantics are
barrier-style: a thread with remaining work in the current phase is
**active**; a thread whose share is exhausted (or zero) **waits** at the
barrier burning idle power; the task advances to the next phase only when
every thread's share is done.  This is what creates the hot/idle alternation
the paper's synchronous rotation averages out.

The simulator owns *where* threads run and *how fast* they retire
instructions; this module only owns *how much* work remains.  That state
lives in a :class:`ThreadProgress` table indexed by thread slot, so the
simulator retires every placed thread of an interval in one array
operation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .benchmarks import BenchmarkProfile


class ThreadProgress:
    """Per-thread progress of many tasks, one entry per thread *slot*.

    ``remaining[slot]`` is the instructions the slot's thread still owes
    its task's current phase, ``retired[slot]`` the instructions it
    retired over its whole life.  A standalone :class:`Task` keeps its
    threads in a table of its own; the interval simulator binds every
    running task to one shared table (:meth:`Task.bind`), so that one
    :meth:`retire` call advances every placed thread of an interval.
    """

    def __init__(self, slots: int = 0):
        self.remaining = np.zeros(slots)
        self.retired = np.zeros(slots)

    def reserve(self, slots: int) -> None:
        """Make room for slot indices below ``slots``."""
        grow = slots - self.remaining.shape[0]
        if grow > 0:
            self.remaining = np.pad(self.remaining, (0, grow))
            self.retired = np.pad(self.retired, (0, grow))

    def retire(
        self, slots: np.ndarray, instructions: np.ndarray, checked: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Retire up to ``instructions[i]`` on slot ``slots[i]``.

        Returns the amounts actually retired, each capped by the slot's
        remaining phase share, and a mask of the slots whose share this
        call brought to zero.  Does **not** advance any phase: the
        barrier is checked per task (:meth:`Task.try_advance_phase`), so
        that all threads of a task observe it consistently.  ``checked``
        skips the scan for negative counts, for an ``instructions`` array
        an earlier call already accepted.
        """
        if not checked and np.any(instructions < 0):
            raise ValueError("cannot retire a negative instruction count")
        remaining = self.remaining[slots]
        done = np.minimum(instructions, remaining)
        left = remaining - done
        self.remaining[slots] = left
        self.retired[slots] += done
        return done, (left == 0) & (remaining > 0)


class Thread:
    """One thread of a task: identity plus per-thread bookkeeping."""

    def __init__(self, task: "Task", index: int):
        self.task = task
        self.index = index

    @property
    def thread_id(self) -> str:
        """Globally unique id, ``<task_id>.<thread_index>``."""
        return f"{self.task.task_id}.{self.index}"

    @property
    def instructions_retired(self) -> float:
        """Instructions retired over the thread's whole life."""
        task = self.task
        return float(task._progress.retired[task._slots[self.index]])

    @property
    def active(self) -> bool:
        """True when the thread has work in the task's current phase."""
        return self.task.thread_has_work(self.index)

    def __repr__(self) -> str:
        state = "active" if self.active else "waiting"
        return f"Thread({self.thread_id}, {state})"


class Task:
    """A multi-threaded benchmark instance with barrier-phase progression."""

    def __init__(
        self,
        task_id: int,
        profile: BenchmarkProfile,
        n_threads: int,
        arrival_time_s: float = 0.0,
        seed: int = 0,
        work_scale: float = 1.0,
    ):
        if n_threads < 1:
            raise ValueError("need at least one thread")
        if work_scale <= 0:
            raise ValueError("work scale must be positive")
        self.task_id = task_id
        self.profile = profile
        self.n_threads = n_threads
        self.arrival_time_s = arrival_time_s
        self.work_scale = work_scale
        self.phases: List[np.ndarray] = [
            np.asarray(p, dtype=float) * work_scale
            for p in profile.build_phases(n_threads, seed)
        ]
        for phase in self.phases:
            if phase.shape != (n_threads,):
                raise ValueError("phase shape does not match thread count")
            if np.any(phase < 0):
                raise ValueError("phase instruction counts must be non-negative")
        self.threads = [Thread(self, i) for i in range(n_threads)]
        self._phase_index = 0
        #: the table holding this task's progress, and its threads' slots
        self._progress = ThreadProgress(n_threads)
        self._slots = np.arange(n_threads)
        if self.phases:
            self._progress.remaining[:] = self.phases[0]
        self.completion_time_s: Optional[float] = None
        self._skip_empty_phases()

    # -- progress storage ----------------------------------------------------

    def bind(self, progress: ThreadProgress, slots: np.ndarray) -> None:
        """Move this task's progress into ``progress`` at ``slots``.

        The slots must lie below the table's reserved size.
        """
        progress.remaining[slots] = self._progress.remaining[self._slots]
        progress.retired[slots] = self._progress.retired[self._slots]
        self._progress, self._slots = progress, slots

    def unbind(self) -> None:
        """Move this task's progress back into a table of its own."""
        own = ThreadProgress(self.n_threads)
        own.remaining[:] = self._progress.remaining[self._slots]
        own.retired[:] = self._progress.retired[self._slots]
        self._progress, self._slots = own, np.arange(self.n_threads)

    # -- progress queries --------------------------------------------------

    @property
    def phase_index(self) -> int:
        """Index of the current phase (== number of completed phases)."""
        return self._phase_index

    @property
    def n_phases(self) -> int:
        """Total number of phases."""
        return len(self.phases)

    @property
    def complete(self) -> bool:
        """True once every phase's work has retired."""
        return self._phase_index >= len(self.phases)

    def thread_has_work(self, index: int) -> bool:
        """True when thread ``index`` has remaining work in this phase."""
        if self.complete:
            return False
        return bool(self._progress.remaining[self._slots[index]] > 0)

    def remaining_in_phase(self, index: int) -> float:
        """Instructions thread ``index`` still owes the current phase."""
        if self.complete:
            return 0.0
        return float(self._progress.remaining[self._slots[index]])

    def total_instructions(self) -> float:
        """Total task work across all phases and threads."""
        return float(sum(np.sum(p) for p in self.phases))

    def instructions_retired(self) -> float:
        """Work retired so far across all threads."""
        return float(sum(self._progress.retired[self._slots].tolist()))

    def active_threads(self) -> Sequence[Thread]:
        """Threads with work in the current phase."""
        return [t for t in self.threads if t.active]

    # -- progress updates ---------------------------------------------------

    def retire(self, instructions: Sequence[float]) -> np.ndarray:
        """Retire up to ``instructions[i]`` on thread ``i``; returns the
        amounts retired (:meth:`ThreadProgress.retire` on this task's
        slots).  Does **not** advance the phase."""
        return self._progress.retire(
            self._slots, np.asarray(instructions, dtype=float)
        )[0]

    def try_advance_phase(self) -> bool:
        """Advance past the barrier if every thread's share is retired.

        Returns ``True`` when at least one phase boundary was crossed.
        Phases in which no thread has work are skipped transparently.
        """
        if self.complete or np.count_nonzero(
            self._progress.remaining[self._slots] > 0
        ):
            return False
        self._phase_index += 1
        if self._phase_index < len(self.phases):
            self._progress.remaining[self._slots] = self.phases[self._phase_index]
        self._skip_empty_phases()
        return True

    def _skip_empty_phases(self) -> None:
        while (
            self._phase_index < len(self.phases)
            and not np.any(self.phases[self._phase_index] > 0)
        ):
            self._phase_index += 1
            if self._phase_index < len(self.phases):
                self._progress.remaining[self._slots] = self.phases[
                    self._phase_index
                ]

    def mark_complete(self, time_s: float) -> None:
        """Record the completion timestamp (set by the simulator)."""
        if not self.complete:
            raise ValueError("task still has outstanding work")
        self.completion_time_s = time_s

    @property
    def response_time_s(self) -> Optional[float]:
        """Completion minus arrival, or ``None`` while running."""
        if self.completion_time_s is None:
            return None
        return self.completion_time_s - self.arrival_time_s

    def __repr__(self) -> str:
        status = (
            "complete"
            if self.complete
            else f"phase {self._phase_index + 1}/{len(self.phases)}"
        )
        return (
            f"Task({self.task_id}, {self.profile.name} x{self.n_threads}, {status})"
        )
