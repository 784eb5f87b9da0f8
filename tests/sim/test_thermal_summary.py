"""Pinned bits of the result's peak temperature and time above T_DTM.

The values were recorded from a stored per-core series of every sample:
its ``max``, and ``np.sum(np.diff(times)[hot[:-1]])``.  The engine keeps
only a running max and the list of hot gaps, summed once at the end; the
pins hold it to those floats bit for bit.  The long runs have up to
hundreds of hot samples, so the sum takes ``np.sum``'s pairwise path.
The twelve traffic-matrix cells are pinned in
``tests/traffic/test_matrix.py``.
"""

import pytest

from repro.experiments import fig2
from repro.sched import PeakFrequencyScheduler
from repro.sim import IntervalSimulator, SimContext
from repro.workload import PARSEC, Task

#: variant -> (peak_temperature_c, time_above_dtm_s) as ``float.hex()``
FIG2 = {
    "none": ("0x1.1aab11a2c1108p+6", "0x1.89374bc6a7f00p-9"),
    "tsp-dvfs": ("0x1.fee129ceeaea9p+5", "0x0.0p+0"),
    "rotation": ("0x1.e1a8f118c91a4p+5", "0x0.0p+0"),
}

#: dtm_enabled -> (peak, time above) of the long run below; 295 and 24
#: hot samples respectively, with an idle gap between the two tasks
LONG_RUN = {
    False: ("0x1.3572fa73c8e02p+6", "0x1.2e147ae147aa4p-3"),
    True: ("0x1.1887005b466ecp+6", "0x1.89374bc6a7ea0p-7"),
}


def test_fig2_variants_pinned(model16):
    result = fig2.run(model=model16)
    for variant, pinned in FIG2.items():
        run = result.results[variant]
        assert (
            run.peak_temperature_c.hex(),
            run.time_above_dtm_s.hex(),
        ) == pinned, variant


@pytest.mark.parametrize("dtm_enabled", [False, True])
def test_long_hot_run_pinned(cfg16, model16, dtm_enabled):
    tasks = [
        Task(0, PARSEC["blackscholes"], 2, seed=1, work_scale=4.0),
        Task(
            1,
            PARSEC["blackscholes"],
            2,
            arrival_time_s=0.5,
            seed=2,
            work_scale=2.0,
        ),
    ]
    sim = IntervalSimulator(
        cfg16,
        PeakFrequencyScheduler(),
        tasks,
        ctx=SimContext(cfg16, model16),
        dtm_enabled=dtm_enabled,
        warm_start_uniform_power_w=fig2.WARM_START_POWER_W,
    )
    result = sim.run(max_time_s=1.0)
    assert (
        result.peak_temperature_c.hex(),
        result.time_above_dtm_s.hex(),
    ) == LONG_RUN[dtm_enabled]
