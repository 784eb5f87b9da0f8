"""Ablation: the rotation interval tau (DESIGN.md ablation 1).

The paper fixes the initial tau at 0.5 ms.  This ablation exposes the
trade-off that choice balances: faster rotation lowers the thermal ripple
(analytic peak falls monotonically) but raises the migration overhead
(response time grows monotonically).  tau = 0.5 ms sits where the peak
reduction has saturated but the overhead is still below ~10 %.
"""

import os

import numpy as np
import pytest

from repro.core.peak_temperature import rotation_peak_temperature
from repro.parallel import Cell, run_cells
from repro.sched.fixed_rotation import FixedRotationScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task

_TAUS_S = (4e-3, 2e-3, 1e-3, 0.5e-3, 0.25e-3)

#: worker processes for the tau sweep (results are jobs-independent)
_JOBS = int(os.environ.get("REPRO_ABLATION_JOBS", "1"))


def _rotation_sequence(n_cores=16, hot_w=8.0):
    seq = np.full((4, n_cores), 0.3)
    for epoch, core in enumerate((5, 6, 9, 10)):
        seq[epoch, core] = hot_w
    return seq


def _response_cell(tau_s, config, model):
    """One tau point of the sweep — module-level so pools can pickle it."""
    sim = IntervalSimulator(
        config,
        FixedRotationScheduler(tau_s=tau_s),
        [Task(0, PARSEC["blackscholes"], 2, seed=1)],
        ctx=SimContext(config, model),
        dtm_enabled=False,
    )
    return sim.run(max_time_s=1.0).tasks[0].response_time_s * 1e3


def _response_sweep_ms(ctx16):
    cells = [
        Cell(
            key=tau,
            fn=_response_cell,
            kwargs=dict(tau_s=tau, config=ctx16.config, model=ctx16.thermal_model),
        )
        for tau in _TAUS_S
    ]
    results = run_cells(cells, jobs=_JOBS)
    return [results[tau] for tau in _TAUS_S]


def test_rotation_interval_tradeoff(benchmark, ctx16):
    def sweep():
        seq = _rotation_sequence()
        peaks = [
            rotation_peak_temperature(ctx16.dynamics, seq, tau, 45.0)
            for tau in _TAUS_S
        ]
        responses = _response_sweep_ms(ctx16)
        return peaks, responses

    peaks, responses = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # thermal side: faster rotation is never hotter
    assert all(b <= a + 1e-9 for a, b in zip(peaks, peaks[1:]))
    # performance side: faster rotation is never faster
    assert all(b >= a - 0.51 for a, b in zip(responses, responses[1:]))
    # the extremes differ measurably in both dimensions
    assert peaks[0] > peaks[-1] + 0.5
    assert responses[-1] > responses[0] * 1.02


def test_paper_default_is_thermally_converged(ctx16):
    """At tau = 0.5 ms the peak is within 1 degC of the tau -> 0 limit:
    rotating faster buys nothing thermally."""
    seq = _rotation_sequence()
    at_default = rotation_peak_temperature(ctx16.dynamics, seq, 0.5e-3, 45.0)
    limit = rotation_peak_temperature(ctx16.dynamics, seq, 1e-5, 45.0)
    assert at_default - limit < 1.0
