"""Ablation: migration-cost sensitivity (DESIGN.md ablation 3).

The paper's premise is that S-NUCA makes migrations cheap; this ablation
scales the private-cache refill cost and verifies the system responds as
the premise predicts: rotation's response-time penalty grows with the cost,
and at several times the calibrated cost rotation loses its edge over DVFS.
"""

import dataclasses

import pytest

from repro.sched.fixed_rotation import FixedRotationScheduler
from repro.sched.pcgov import PCGovScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task

_SCALES = (0.25, 1.0, 4.0)


def _rotation_response_ms(ctx16, cost_scale):
    ctx = SimContext(ctx16.config, ctx16.thermal_model)
    base = ctx.migration.cold_start_factor
    ctx.migration.cold_start_factor = base * cost_scale
    ctx.migration.restart_overhead_s *= cost_scale
    sim = IntervalSimulator(
        ctx16.config,
        FixedRotationScheduler(tau_s=0.5e-3),
        [Task(0, PARSEC["blackscholes"], 2, seed=1)],
        ctx=ctx,
        dtm_enabled=False,
    )
    return sim.run(max_time_s=1.5).tasks[0].response_time_s * 1e3


def test_migration_cost_sensitivity(benchmark, ctx16):
    responses = benchmark.pedantic(
        lambda: [_rotation_response_ms(ctx16, s) for s in _SCALES],
        rounds=1,
        iterations=1,
    )
    # rotation overhead strictly grows with migration cost
    assert responses[0] < responses[1] < responses[2]


def test_rotation_beats_dvfs_only_when_migrations_cheap(ctx16):
    """The paper's observation inverted: if migrations were ~4x more
    expensive, DVFS would win the motivational example."""
    dvfs_sim = IntervalSimulator(
        ctx16.config,
        PCGovScheduler(budget_mode="worst-case"),
        [Task(0, PARSEC["blackscholes"], 2, seed=1)],
        ctx=SimContext(ctx16.config, ctx16.thermal_model),
    )
    dvfs_ms = dvfs_sim.run(max_time_s=1.5).tasks[0].response_time_s * 1e3
    cheap = _rotation_response_ms(ctx16, 1.0)
    expensive = _rotation_response_ms(ctx16, 4.0)
    assert cheap < dvfs_ms  # the published regime
    assert expensive > dvfs_ms  # the premise's boundary
