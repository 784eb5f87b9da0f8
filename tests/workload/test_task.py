"""Task/thread state machine: barrier-phase progression."""

import numpy as np
import pytest

from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task


@pytest.fixture()
def task():
    return Task(7, PARSEC["blackscholes"], 2, arrival_time_s=0.01, seed=1)


class TestConstruction:
    def test_thread_ids(self, task):
        assert [t.thread_id for t in task.threads] == ["7.0", "7.1"]

    def test_initial_state(self, task):
        assert not task.complete
        assert task.phase_index == 0
        assert task.instructions_retired() == 0.0

    def test_work_scale(self):
        base = Task(0, PARSEC["canneal"], 2, seed=1)
        double = Task(0, PARSEC["canneal"], 2, seed=1, work_scale=2.0)
        assert double.total_instructions() == pytest.approx(
            2 * base.total_instructions()
        )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Task(0, PARSEC["canneal"], 0)
        with pytest.raises(ValueError):
            Task(0, PARSEC["canneal"], 2, work_scale=0.0)


class TestBarrierSemantics:
    def test_master_active_slave_waits_initially(self, task):
        """blackscholes phase 1: master works, slave idles (paper Fig. 2)."""
        assert task.threads[0].active
        assert not task.threads[1].active

    def test_phase_does_not_advance_until_done(self, task):
        task.retire([1.0, 0.0])
        assert not task.try_advance_phase()
        assert task.phase_index == 0

    def test_phase_advances_at_barrier(self, task):
        task.retire([task.remaining_in_phase(0), 0.0])
        assert task.try_advance_phase()
        assert task.phase_index == 1
        # now the slave works and the master waits
        assert not task.threads[0].active
        assert task.threads[1].active

    def test_advance_caps_at_remaining(self, task):
        remaining = task.remaining_in_phase(0)
        done = task.retire([remaining * 10, 0.0])[0]
        assert done == pytest.approx(remaining)
        assert task.remaining_in_phase(0) == 0.0

    def test_waiting_thread_retires_nothing(self, task):
        assert task.retire([0.0, 1e6])[1] == 0.0

    def test_negative_advance_rejected(self, task):
        with pytest.raises(ValueError):
            task.retire([-1.0, 0.0])


class TestCompletion:
    def run_to_completion(self, task):
        guard = 0
        while not task.complete:
            task.retire(np.full(task.n_threads, 1e9))
            task.try_advance_phase()
            guard += 1
            assert guard < 100

    def test_work_conservation(self, task):
        self.run_to_completion(task)
        assert task.instructions_retired() == pytest.approx(
            task.total_instructions()
        )

    def test_response_time(self, task):
        self.run_to_completion(task)
        assert task.response_time_s is None  # not yet marked
        task.mark_complete(0.08)
        assert task.response_time_s == pytest.approx(0.07)

    def test_mark_complete_requires_completion(self, task):
        with pytest.raises(ValueError):
            task.mark_complete(1.0)

    def test_no_work_after_completion(self, task):
        self.run_to_completion(task)
        assert task.retire([1e6, 0.0])[0] == 0.0
        assert not task.thread_has_work(0)
        assert not task.try_advance_phase()

    def test_all_benchmark_tasks_complete(self):
        for name in PARSEC:
            task = Task(0, PARSEC[name], 4, seed=2)
            self.run_to_completion(task)
            assert task.complete


class TestEmptyPhaseSkipping:
    def test_zero_work_phases_skipped(self):
        """A task whose first phase has no work must skip it silently."""

        class FakeProfile:
            name = "fake"

            @staticmethod
            def build_phases(n_threads, seed=0):
                return [
                    np.zeros(n_threads),
                    np.full(n_threads, 10.0),
                ]

        task = Task(0, FakeProfile, 2)
        assert task.phase_index == 1
        assert task.threads[0].active
