"""The open system's arrival process: homogeneous Poisson.

The paper's Fig. 4b drives the chip with a single homogeneous Poisson
stream.  :class:`PoissonProcess` draws it as one
``default_rng(seed).exponential(1 / rate, n)`` draw, cumulatively
summed, so every schedule is a pure function of ``(n, seed)``.
Recorded schedules are replayed from JSONL files instead
(:mod:`repro.traffic.trace`).

:func:`assign_arrivals` stamps sampled times onto
:class:`~repro.workload.generator.TaskSpec` lists following the ordering
contract of :func:`repro.workload.generator.materialize`: the result is
sorted by arrival time, so list position == task id.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence

import numpy as np

from ..workload.generator import TaskSpec


class PoissonProcess:
    """Homogeneous Poisson arrivals (exponential inter-arrival gaps)."""

    def __init__(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate_per_s = float(rate_per_s)

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        """Draw ``n`` arrival times [s] as a pure function of ``seed``."""
        if n < 0:
            raise ValueError("cannot sample a negative number of arrivals")
        gaps = np.random.default_rng(seed).exponential(1.0 / self.rate_per_s, n)
        return np.cumsum(gaps)


def assign_arrivals(
    specs: Sequence[TaskSpec], process: PoissonProcess, seed: int = 0
) -> List[TaskSpec]:
    """Stamp sampled arrival times onto a spec list, sorted by arrival.

    Spec ``i`` (input order) receives the ``i``-th arrival time; the
    result is then sorted by arrival time so that list position == the id
    :func:`repro.workload.generator.materialize` assigns.  Sampled times
    are non-decreasing, so the pairing of payloads to times survives the
    sort unchanged.
    """
    times = process.sample(len(specs), seed=seed)
    assigned = [
        replace(spec, arrival_time_s=float(at))
        for spec, at in zip(specs, times)
    ]
    return sorted(assigned, key=lambda s: s.arrival_time_s)
