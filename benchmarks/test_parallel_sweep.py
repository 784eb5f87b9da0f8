"""Parallel sweep runner: ``jobs=4`` has no pathological overhead.

Times the fig4a driver serially (best of ``SWEEP_REPEATS``) and with a
four-worker pool (one shot; its gate has a 2x margin).  On a single-CPU
host no speedup is physically possible, so the gate only bounds the
pool's spawn and transport cost.  Output equality with the serial run is
pinned by ``tests/test_parallel.py``; end-to-end speed is
``python -m bench``'s job.
"""

import time

from repro.experiments import fig4a

SWEEP_BENCHMARKS = ("blackscholes", "canneal")
SWEEP_MAX_TIME_S = 0.3
SWEEP_REPEATS = 2


def _sweep_wall_s(jobs):
    start = time.perf_counter()
    fig4a.run(benchmarks=SWEEP_BENCHMARKS, max_time_s=SWEEP_MAX_TIME_S, jobs=jobs)
    return time.perf_counter() - start


def test_parallel_sweep_no_pathological_overhead():
    """jobs=4 must not regress wall time beyond pool-spawn overhead."""
    serial_s = min(_sweep_wall_s(1) for _ in range(SWEEP_REPEATS))
    parallel_s = _sweep_wall_s(4)
    assert parallel_s < serial_s * 2.0 + 2.0
