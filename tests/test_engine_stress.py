"""Randomized end-to-end stress: the simulator's conservation invariants.

Hypothesis drives random small workloads through random schedulers on the
4-core test platform and checks the invariants no run may break:
every task completes exactly once, instructions are conserved, response
times are causal, and the thermal trace stays physically bounded.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import config
from repro.obs import Observer, TraceRecorder
from repro.sched import (
    HotPotatoScheduler,
    PCGovScheduler,
    PCMigScheduler,
    PeakFrequencyScheduler,
)
from repro.sim import IntervalSimulator, SimContext
from repro.thermal.calibrate import calibrated_model
from repro.workload import PARSEC, Task

_CFG = config.small_test()  # 2x2 cores: fast
_MODEL = calibrated_model(_CFG)

_SCHEDULERS = (
    PeakFrequencyScheduler,
    PCGovScheduler,
    PCMigScheduler,
    HotPotatoScheduler,
)

_PROFILE_NAMES = sorted(PARSEC)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheduler_idx=st.integers(0, len(_SCHEDULERS) - 1),
    task_specs=st.lists(
        st.tuples(
            st.sampled_from(_PROFILE_NAMES),
            st.integers(1, 2),  # threads
            st.floats(0.0, 0.05),  # arrival
            st.integers(0, 1000),  # seed
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_random_workloads_conserve_invariants(scheduler_idx, task_specs):
    tasks = [
        Task(i, PARSEC[name], threads, arrival_time_s=arrival, seed=seed,
             work_scale=0.05)
        for i, (name, threads, arrival, seed) in enumerate(task_specs)
    ]
    totals = {t.task_id: t.total_instructions() for t in tasks}
    recorder = TraceRecorder()
    sim = IntervalSimulator(
        _CFG,
        _SCHEDULERS[scheduler_idx](),
        tasks,
        ctx=SimContext(_CFG, _MODEL),
        observer=Observer(trace=recorder),
    )
    result = sim.run(max_time_s=5.0)

    # every task completed exactly once
    assert sorted(r.task_id for r in result.tasks) == sorted(totals)
    for record in result.tasks:
        # causality: completion after arrival
        assert record.completion_s > record.arrival_s
    # instruction conservation
    for task in tasks:
        assert task.instructions_retired() == pytest.approx(
            totals[task.task_id], rel=1e-9
        )
    # physical temperatures, every interval
    temps = np.array([r.temps_c for r in recorder.intervals()])
    assert np.all(temps >= _CFG.thermal.ambient_c - 1e-6)
    assert np.all(temps < 150.0)
    assert np.max(temps) <= result.peak_temperature_c
    # energy is positive and bounded by max chip power
    assert 0.0 < result.energy_j <= 4 * 10.0 * result.sim_time_s + 1e-9
