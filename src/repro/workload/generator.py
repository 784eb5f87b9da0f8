"""Workload generators for the paper's two evaluation campaigns.

- **Homogeneous closed system** (Fig. 4a): the 64-core chip is fully loaded
  with vari-sized multi-threaded instances of one benchmark, all arriving at
  time zero.
- **Heterogeneous open system** (Fig. 4b): a random 20-benchmark
  multi-program workload whose tasks arrive following a Poisson process
  (:func:`repro.traffic.assign_arrivals` stamps the times); the arrival
  rate sweeps the system from under- to over-loaded.

Generators emit :class:`TaskSpec` lists (pure descriptions); experiments
materialize them into :class:`~repro.workload.task.Task` objects.  All
randomness is seeded for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .benchmarks import PARSEC, BenchmarkProfile, parsec_profile
from .task import Task


@dataclass(frozen=True)
class TaskSpec:
    """Description of one task instance to be created."""

    profile: BenchmarkProfile
    n_threads: int
    arrival_time_s: float = 0.0
    seed: int = 0
    #: multiplier on all phase instruction counts (longer inputs)
    work_scale: float = 1.0

    def materialize(self, task_id: int) -> Task:
        """Create the runnable :class:`Task`."""
        return Task(
            task_id,
            self.profile,
            self.n_threads,
            arrival_time_s=self.arrival_time_s,
            seed=self.seed,
            work_scale=self.work_scale,
        )


def materialize(specs: Sequence[TaskSpec]) -> List[Task]:
    """Create tasks from specs with sequential ids (arrival order).

    The sort key is ``(arrival_time_s, position in the input list)`` — a
    stable sort — so arrival-assignment helpers that already return specs
    in arrival order (:func:`repro.traffic.assign_arrivals`) keep their
    pairing of spec payloads to ids unchanged.
    """
    ordered = sorted(specs, key=lambda s: s.arrival_time_s)
    return [spec.materialize(task_id) for task_id, spec in enumerate(ordered)]


def homogeneous_fill(
    benchmark: str, n_cores: int, seed: int = 0, work_scale: float = 1.0
) -> List[TaskSpec]:
    """Vari-sized instances of one benchmark exactly filling ``n_cores``.

    Thread counts are drawn from the profile's options; the remainder is
    topped up with the largest option that still fits (and a final instance
    sized to the exact residue, which may fall outside the options).
    """
    profile = parsec_profile(benchmark)
    rng = np.random.default_rng(seed)
    specs: List[TaskSpec] = []
    remaining = n_cores
    while remaining > 0:
        fitting = [n for n in profile.thread_options if n <= remaining]
        size = int(rng.choice(fitting)) if fitting else remaining
        specs.append(
            TaskSpec(
                profile,
                size,
                0.0,
                seed=int(rng.integers(1 << 31)),
                work_scale=work_scale,
            )
        )
        remaining -= size
    assert sum(s.n_threads for s in specs) == n_cores
    return specs


def random_mixed_workload(
    n_tasks: int = 20,
    seed: int = 0,
    benchmarks: Optional[Sequence[str]] = None,
    work_scale: float = 1.0,
) -> List[TaskSpec]:
    """The paper's random multi-program multi-threaded mix (Fig. 4b).

    Benchmarks and thread counts are drawn uniformly from the evaluated
    PARSEC set and each profile's thread options.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    names = list(benchmarks) if benchmarks is not None else list(PARSEC)
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(n_tasks):
        profile = parsec_profile(str(rng.choice(names)))
        size = int(rng.choice(profile.thread_options))
        specs.append(
            TaskSpec(
                profile,
                size,
                0.0,
                seed=int(rng.integers(1 << 31)),
                work_scale=work_scale,
            )
        )
    return specs
