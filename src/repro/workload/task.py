"""Tasks and threads: the dynamic execution state of a workload.

A :class:`Task` is one multi-threaded benchmark instance progressing through
its phase list (see :mod:`repro.workload.phases`).  Phase semantics are
barrier-style: a thread with remaining work in the current phase is
**active**; a thread whose share is exhausted (or zero) **waits** at the
barrier burning idle power; the task advances to the next phase only when
every thread's share is done.  This is what creates the hot/idle alternation
the paper's synchronous rotation averages out.

The simulator owns *where* threads run and *how fast* they retire
instructions; this module only owns *how much* work remains.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .benchmarks import BenchmarkProfile
from .qos import QosSpec


class Thread:
    """One thread of a task: identity plus per-thread bookkeeping."""

    def __init__(self, task: "Task", index: int):
        self.task = task
        self.index = index
        #: instructions retired over the thread's whole life
        self.instructions_retired: float = 0.0

    @property
    def thread_id(self) -> str:
        """Globally unique id, ``<task_id>.<thread_index>``."""
        return f"{self.task.task_id}.{self.index}"

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
        qos: Optional[QosSpec] = None,
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
        #: optional QoS annotation (deadline / SLO / priority class)
        self.qos = qos
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
        self._remaining = self.phases[0].copy() if self.phases else np.zeros(0)
        self.completion_time_s: Optional[float] = None
        self._skip_empty_phases()

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
        return bool(self._remaining[index] > 0)

    def remaining_in_phase(self, index: int) -> float:
        """Instructions thread ``index`` still owes the current phase."""
        if self.complete:
            return 0.0
        return float(self._remaining[index])

    def total_instructions(self) -> float:
        """Total task work across all phases and threads."""
        return float(sum(np.sum(p) for p in self.phases))

    def instructions_retired(self) -> float:
        """Work retired so far across all threads."""
        return float(sum(t.instructions_retired for t in self.threads))

    def active_threads(self) -> Sequence[Thread]:
        """Threads with work in the current phase."""
        return [t for t in self.threads if t.active]

    # -- progress updates ---------------------------------------------------

    def advance(self, index: int, instructions: float) -> float:
        """Retire up to ``instructions`` on thread ``index``.

        Returns the amount actually retired (capped by the thread's
        remaining phase share).  Does **not** advance the phase; the
        simulator calls :meth:`try_advance_phase` once per interval so that
        all threads observe the barrier consistently.
        """
        if instructions < 0:
            raise ValueError("cannot retire a negative instruction count")
        if self.complete:
            return 0.0
        done = min(instructions, float(self._remaining[index]))
        self._remaining[index] -= done
        self.threads[index].instructions_retired += done
        return done

    def try_advance_phase(self) -> bool:
        """Advance past the barrier if every thread's share is retired.

        Returns ``True`` when at least one phase boundary was crossed.
        Phases in which no thread has work are skipped transparently.
        """
        if self.complete or np.count_nonzero(self._remaining > 0):
            return False
        self._phase_index += 1
        if self._phase_index < len(self.phases):
            self._remaining = self.phases[self._phase_index].copy()
        self._skip_empty_phases()
        return True

    def _skip_empty_phases(self) -> None:
        while (
            self._phase_index < len(self.phases)
            and not np.any(self.phases[self._phase_index] > 0)
        ):
            self._phase_index += 1
            if self._phase_index < len(self.phases):
                self._remaining = self.phases[self._phase_index].copy()

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

    @property
    def deadline_time_s(self) -> Optional[float]:
        """Absolute deadline (arrival + relative QoS deadline), if any."""
        if self.qos is None or self.qos.deadline_s is None:
            return None
        return self.arrival_time_s + self.qos.deadline_s

    def __repr__(self) -> str:
        status = (
            "complete"
            if self.complete
            else f"phase {self._phase_index + 1}/{len(self.phases)}"
        )
        return (
            f"Task({self.task_id}, {self.profile.name} x{self.n_threads}, {status})"
        )
