"""Slot-array task progress against the per-thread definition.

The interval simulator binds every running task to one shared
:class:`~repro.workload.task.ThreadProgress` table, retires all placed
threads of an interval with one :meth:`ThreadProgress.retire` call, and
checks the barrier only of tasks that had a thread's share reach zero
(or that arrived complete).  The reference below keeps the per-thread
definition: one ``advance`` call per thread, a scalar ``min`` against the
thread's remaining share, and a barrier check of every task every
interval.  Both must agree bit for bit in every interval.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workload.task import Task, ThreadProgress


class _Profile:
    """A benchmark profile whose phase list is given."""

    name = "drawn"

    def __init__(self, phases):
        self._phases = phases

    def build_phases(self, n_threads, seed=0):
        return [np.array(phase, dtype=float) for phase in self._phases]


class _ReferenceTask:
    """Per-thread progress: one ``advance`` per thread, barrier per task."""

    def __init__(self, phases):
        self.phases = [np.array(phase, dtype=float) for phase in phases]
        self.phase_index = 0
        n_threads = len(phases[0]) if phases else 0
        self.remaining = self.phases[0].copy() if self.phases else np.zeros(0)
        self.retired = [0.0] * n_threads
        self._skip_empty_phases()

    @property
    def complete(self):
        return self.phase_index >= len(self.phases)

    def advance(self, index, instructions):
        if instructions < 0:
            raise ValueError("cannot retire a negative instruction count")
        if self.complete:
            return 0.0
        done = min(instructions, float(self.remaining[index]))
        self.remaining[index] -= done
        self.retired[index] += done
        return done

    def try_advance_phase(self):
        if self.complete or np.count_nonzero(self.remaining > 0):
            return False
        self.phase_index += 1
        if self.phase_index < len(self.phases):
            self.remaining = self.phases[self.phase_index].copy()
        self._skip_empty_phases()
        return True

    def _skip_empty_phases(self):
        while self.phase_index < len(self.phases) and not np.any(
            self.phases[self.phase_index] > 0
        ):
            self.phase_index += 1
            if self.phase_index < len(self.phases):
                self.remaining = self.phases[self.phase_index].copy()


def _bits(value):
    return np.float64(value).tobytes()


#: a phase share: zero (the thread waits at the barrier), a round value
#: (exact remainders), or an arbitrary one
_SHARE = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 3.0, 1e9]),
    st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _tasks(draw):
    n_threads = draw(st.integers(1, 4))
    phases = draw(
        st.lists(st.lists(_SHARE, min_size=n_threads, max_size=n_threads), max_size=4)
    )
    if not phases:
        # a task needs its thread count from somewhere: one empty phase
        phases = [[0.0] * n_threads]
    arrival = draw(st.integers(0, 3))
    return n_threads, phases, arrival


#: what a thread asks to retire in one interval: nothing (its time went
#: to migration debt), exactly its remaining share, a multiple of it, or
#: an arbitrary amount
_WANT = st.one_of(
    st.just(("zero",)),
    st.just(("exact",)),
    st.tuples(st.just("scaled"), st.sampled_from([0.5, 2.0, 0.3])),
    st.tuples(
        st.just("amount"),
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    ),
)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    specs=st.lists(_tasks(), min_size=1, max_size=4),
    intervals=st.lists(
        st.tuples(
            st.lists(st.booleans(), min_size=4, max_size=4),
            st.lists(_WANT, min_size=16, max_size=16),
        ),
        max_size=30,
    ),
)
def test_slot_progress_matches_per_thread_reference(specs, intervals):
    progress = ThreadProgress()
    # slots handed out in reverse, so no task's slots are 0..n-1
    n_slots = sum(n for n, _, _ in specs)
    progress.reserve(n_slots)
    free = list(range(n_slots))
    tasks = [Task(k, _Profile(phases), n) for k, (n, phases, _) in enumerate(specs)]
    references = [_ReferenceTask(phases) for _, phases, _ in specs]
    running = []
    at_barrier = set()
    for now, (placed_flags, wants) in enumerate(intervals):
        for task, (_, _, arrival) in zip(tasks, specs):
            if arrival == now:
                slots = np.array([free.pop() for _ in range(task.n_threads)])
                task.bind(progress, slots)
                running.append(task)
                if task.complete:
                    at_barrier.add(task)
        placed = [
            (task, index)
            for task in running
            if placed_flags[task.task_id % 4]
            for index in range(task.n_threads)
        ]
        wanted = []
        for (task, index), want in zip(placed, wants):
            reference = references[task.task_id]
            share = 0.0 if reference.complete else float(reference.remaining[index])
            if want[0] == "zero":
                wanted.append(0.0)
            elif want[0] == "exact":
                wanted.append(share)
            elif want[0] == "scaled":
                wanted.append(share * want[1])
            else:
                wanted.append(want[1])
        slots = np.array([task._slots[index] for task, index in placed], dtype=np.intp)
        done, emptied = progress.retire(slots, np.array(wanted, dtype=float))
        expected = [
            references[task.task_id].advance(index, amount)
            for (task, index), amount in zip(placed, wanted)
        ]
        assert [_bits(d) for d in done] == [_bits(d) for d in expected]
        for (task, _), hit in zip(placed, emptied):
            if hit:
                at_barrier.add(task)
        # barrier: the engine checks flagged tasks; the reference every task
        for task in running:
            if task in at_barrier:
                task.try_advance_phase()
        at_barrier.clear()
        for task in running:
            references[task.task_id].try_advance_phase()
        for task in list(running):
            reference = references[task.task_id]
            assert task.phase_index == reference.phase_index
            assert task.complete == reference.complete
            for index in range(task.n_threads):
                left = 0.0 if reference.complete else reference.remaining[index]
                assert _bits(task.remaining_in_phase(index)) == _bits(left)
                assert task.thread_has_work(index) == (left > 0)
                assert _bits(task.threads[index].instructions_retired) == _bits(
                    reference.retired[index]
                )
            assert task.instructions_retired() == float(sum(reference.retired))
            if task.complete:
                # the engine hands a finished task's slots back
                running.remove(task)
                freed = task._slots.tolist()
                task.unbind()
                free.extend(freed)


class TestRetire:
    def test_negative_retirement_rejected_without_effect(self):
        progress = ThreadProgress(3)
        progress.remaining[:] = [5.0, 6.0, 7.0]
        with pytest.raises(ValueError):
            progress.retire(np.array([0, 2]), np.array([1.0, -1.0]))
        assert progress.remaining.tolist() == [5.0, 6.0, 7.0]
        assert progress.retired.tolist() == [0.0, 0.0, 0.0]

    def test_emptied_marks_only_shares_reaching_zero(self):
        progress = ThreadProgress(4)
        progress.remaining[:] = [5.0, 0.0, 2.0, 3.0]
        done, emptied = progress.retire(
            np.array([0, 1, 2, 3]), np.array([5.0, 4.0, 1.0, 0.0])
        )
        assert done.tolist() == [5.0, 0.0, 1.0, 0.0]
        # an already-empty share (a waiting thread) is not "reached"
        assert emptied.tolist() == [True, False, False, False]

    def test_bind_moves_progress_and_unbind_keeps_queries(self):
        task = Task(0, _Profile([[4.0, 2.0], [1.0, 1.0]]), 2)
        task.retire([1.0, 2.0])
        table = ThreadProgress()
        table.reserve(8)
        task.bind(table, np.array([6, 3]))
        assert table.remaining[[6, 3]].tolist() == [3.0, 0.0]
        assert table.retired[[6, 3]].tolist() == [1.0, 2.0]
        task.retire([3.0, 0.0])
        assert task.try_advance_phase()
        assert table.remaining[[6, 3]].tolist() == [1.0, 1.0]
        task.unbind()
        # the table's slots may be reused; the task keeps its own copy
        table.remaining[:] = 99.0
        table.retired[:] = 99.0
        assert task.remaining_in_phase(0) == 1.0
        assert task.instructions_retired() == 6.0
        assert task.threads[1].instructions_retired == 2.0
