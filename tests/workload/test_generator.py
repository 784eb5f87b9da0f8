"""Workload generators (paper's two evaluation campaigns)."""

import numpy as np
import pytest

from repro.traffic import PoissonProcess, assign_arrivals
from repro.workload.generator import (
    TaskSpec,
    homogeneous_fill,
    materialize,
    random_mixed_workload,
)
from repro.workload.benchmarks import PARSEC


class TestHomogeneousFill:
    def test_fills_exactly(self):
        for n_cores in (16, 64):
            specs = homogeneous_fill("swaptions", n_cores, seed=1)
            assert sum(s.n_threads for s in specs) == n_cores

    def test_single_benchmark(self):
        specs = homogeneous_fill("canneal", 64, seed=2)
        assert all(s.profile.name == "canneal" for s in specs)

    def test_vari_sized(self):
        specs = homogeneous_fill("x264", 64, seed=3)
        assert len({s.n_threads for s in specs}) > 1

    def test_deterministic(self):
        a = homogeneous_fill("dedup", 64, seed=4)
        b = homogeneous_fill("dedup", 64, seed=4)
        assert [s.n_threads for s in a] == [s.n_threads for s in b]
        assert [s.seed for s in a] == [s.seed for s in b]

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            homogeneous_fill("nope", 64)

    def test_work_scale_propagates(self):
        specs = homogeneous_fill("dedup", 16, seed=1, work_scale=2.5)
        assert all(s.work_scale == 2.5 for s in specs)


class TestRandomMix:
    def test_default_is_20_tasks(self):
        assert len(random_mixed_workload(seed=5)) == 20

    def test_draws_from_parsec(self):
        specs = random_mixed_workload(50, seed=6)
        assert {s.profile.name for s in specs} <= set(PARSEC)
        assert len({s.profile.name for s in specs}) > 3

    def test_thread_counts_from_options(self):
        for spec in random_mixed_workload(30, seed=7):
            assert spec.n_threads in spec.profile.thread_options

    def test_benchmark_restriction(self):
        specs = random_mixed_workload(10, seed=8, benchmarks=["canneal"])
        assert all(s.profile.name == "canneal" for s in specs)

    def test_rejects_zero_tasks(self):
        with pytest.raises(ValueError):
            random_mixed_workload(0)


class TestPoissonArrivals:
    def test_arrivals_sorted_positive(self):
        specs = assign_arrivals(
            random_mixed_workload(20, seed=1), PoissonProcess(10.0), seed=2
        )
        times = [s.arrival_time_s for s in specs]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_mean_gap_matches_rate(self):
        specs = assign_arrivals(
            random_mixed_workload(2000, seed=3), PoissonProcess(50.0), seed=4
        )
        times = np.array([s.arrival_time_s for s in specs])
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert np.mean(gaps) == pytest.approx(1 / 50.0, rel=0.1)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonProcess(0.0)


class TestMaterialize:
    def test_ids_follow_arrival_order(self):
        specs = assign_arrivals(
            random_mixed_workload(10, seed=9), PoissonProcess(20.0), seed=10
        )
        tasks = materialize(specs)
        assert [t.task_id for t in tasks] == list(range(10))
        arrivals = [t.arrival_time_s for t in tasks]
        assert arrivals == sorted(arrivals)

    def test_spec_materialize(self):
        spec = TaskSpec(PARSEC["canneal"], 4, 0.5, seed=11)
        task = spec.materialize(3)
        assert task.task_id == 3
        assert task.n_threads == 4
        assert task.arrival_time_s == 0.5


class TestArrivalOrderingContract:
    """Regression: ids must follow *final* arrival order (docs/traffic.md).

    Every arrival-assignment helper returns specs sorted by assigned
    arrival time so that list position == the sequential id
    ``materialize`` hands out.  Cumulative Poisson gaps are monotone by
    construction, but composed processes (flash-crowd overlays) are not —
    the explicit sort is what keeps the pairing stable either way.
    """

    def test_out_of_order_specs_get_ids_by_arrival(self):
        specs = [
            TaskSpec(PARSEC["canneal"], 1, 0.3, seed=0),
            TaskSpec(PARSEC["swaptions"], 2, 0.1, seed=1),
            TaskSpec(PARSEC["blackscholes"], 1, 0.2, seed=2),
        ]
        tasks = materialize(specs)
        assert [t.task_id for t in tasks] == [0, 1, 2]
        assert [t.profile.name for t in tasks] == [
            "swaptions",
            "blackscholes",
            "canneal",
        ]

    def test_poisson_arrivals_position_equals_materialized_id(self):
        specs = assign_arrivals(
            random_mixed_workload(15, seed=6), PoissonProcess(30.0), seed=7
        )
        tasks = materialize(specs)
        for position, (spec, task) in enumerate(zip(specs, tasks)):
            assert task.task_id == position
            assert task.arrival_time_s == spec.arrival_time_s
            assert task.profile.name == spec.profile.name
            assert task.n_threads == spec.n_threads
