"""Fault-injection overhead: disabled vs zero-amplitude vs active faults.

The subsystem's contract is "off by default, free when off" — a config
without faults pays exactly one ``is None`` check per engine hook.  This
benchmark times the same workload at three fault levels and gates the
two enabled levels against the disabled one.  ``zero_amplitude`` is the
interesting middle level: the injector and sensor shim are live (every
reading passes through them) but no fault ever fires, so it prices the
machinery itself, separate from the cost of reacting to faults.

Wall-clock assertions are deliberately generous (shared CI boxes are
noisy).  Precise, speed-corrected timings are ``python -m bench``'s job.
"""

import time

import pytest

from repro import config
from repro.sched import FixedRotationScheduler
from repro.sim.engine import IntervalSimulator
from repro.workload import PARSEC, Task

#: fault levels: name -> with_faults kwargs (None = faults never enabled).
LEVELS = {
    "disabled": None,
    "zero_amplitude": {},
    "active": {
        "sensor_noise_sigma_c": 0.5,
        "sensor_dropout_prob": 0.05,
        "power_spike_prob": 0.02,
        "power_spike_w": 1.0,
        "migration_failure_prob": 0.1,
    },
}
SIM_TIME_S = 0.05
REPEATS = 3


def _run_once(ctx16, level_kwargs):
    cfg = config.motivational()
    if level_kwargs is not None:
        cfg = cfg.with_faults(seed=1, **level_kwargs)
    tasks = [Task(0, PARSEC["blackscholes"], n_threads=4, seed=1)]
    sim = IntervalSimulator(cfg, FixedRotationScheduler(), tasks, ctx=ctx16)
    start = time.perf_counter()
    sim.run(max_time_s=SIM_TIME_S)
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def measurements(ctx16):
    """Best-of-``REPEATS`` wall time per fault level."""
    return {
        name: min(_run_once(ctx16, kwargs) for _ in range(REPEATS))
        for name, kwargs in LEVELS.items()
    }


def test_zero_amplitude_overhead_is_bounded(measurements):
    """The live-but-silent injector must not blow up the hot loop.

    Generous factor: per interval it costs a handful of RNG draws and one
    array copy through the sensor shim, so even on a noisy box 3x the
    disabled run is far beyond any plausible regression-free cost.
    """
    disabled = measurements["disabled"]
    zero = measurements["zero_amplitude"]
    assert zero < disabled * 3.0 + 0.5


def test_active_faults_overhead_is_bounded(measurements):
    """Actually firing faults stays within a small multiple of disabled."""
    disabled = measurements["disabled"]
    active = measurements["active"]
    assert active < disabled * 5.0 + 1.0
