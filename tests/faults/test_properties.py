"""Property-based robustness: random fault schedules, invariant outcomes.

Stdlib-only generation (a seeded ``random.Random`` builds random
``FaultsConfig`` parameter sets); each sampled schedule runs a real
simulation and must keep the safety and sanity invariants below.  The
sample count is small because each case is a full simulation — the seeds
are fixed, so failures reproduce exactly.
"""

import math
import random

import numpy as np
import pytest

from repro import units
from repro.obs import Observer, TraceRecorder
from repro.sched.hotpotato_runtime import HotPotatoScheduler
from repro.sched.pcmig import PCMigScheduler
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task

#: Physical-overshoot allowance [degC] above T_DTM + hysteresis: DTM
#: reacts at interval granularity, so one interval of f_min + spike power
#: can still add a little heat before the clamp bites.
_OVERSHOOT_TOLERANCE_C = 1.0

#: Power spikes are bounded so that a chip at f_min remains coolable —
#: an unbounded spike would overwhelm *hardware* DTM too, and the
#: invariant below is about the control stack, not about physics limits.
_MAX_SPIKE_W = 3.0


def _random_faults(rnd: random.Random) -> dict:
    """One random fault parameter set (amplitudes bounded, seeded)."""
    return dict(
        seed=rnd.randrange(2**16),
        sensor_noise_sigma_c=rnd.uniform(0.0, 2.0),
        sensor_bias_c=rnd.uniform(-1.5, 1.5),
        sensor_dropout_prob=rnd.uniform(0.0, 0.3),
        sensor_dropout_duration_s=rnd.uniform(units.ms(0.5), units.ms(8.0)),
        sensor_stuck_prob=rnd.uniform(0.0, 0.1),
        power_spike_prob=rnd.uniform(0.0, 0.2),
        power_spike_w=rnd.uniform(0.0, _MAX_SPIKE_W),
        power_spike_duration_s=rnd.uniform(units.ms(0.25), units.ms(2.0)),
        core_stuck_prob=rnd.uniform(0.0, 0.1),
        migration_failure_prob=rnd.uniform(0.0, 1.0),
    )


def _hot_tasks():
    # fill the 2x2 chip with the hot benchmark so DTM actually matters
    return [Task(0, PARSEC["x264"], 4, seed=3)]


CASES = [(s, sched) for s in range(6) for sched in ("hotpotato", "pcmig")]


@pytest.mark.parametrize("sample_seed,scheduler_name", CASES)
def test_dtm_safety_under_random_faults(
    fcfg, run_sim, sample_seed, scheduler_name
):
    """Ground-truth temperature never escapes the DTM envelope.

    Whatever the fault schedule throws at the control stack, hardware DTM
    reads ground truth (the thermal diode) and must keep every core at or
    below ``T_DTM + hysteresis`` plus one interval of reaction slack.
    """
    params = _random_faults(random.Random(sample_seed))
    cfg = fcfg.with_faults(**params)
    scheduler = (
        HotPotatoScheduler() if scheduler_name == "hotpotato" else PCMigScheduler()
    )
    _, result = run_sim(cfg, scheduler, _hot_tasks(), max_time_s=0.4)
    limit = (
        cfg.thermal.dtm_threshold_c
        + cfg.thermal.dtm_hysteresis_c
        + _OVERSHOOT_TOLERANCE_C
    )
    peak = result.peak_temperature_c
    assert peak <= limit, (params, peak, limit)
    assert math.isfinite(result.makespan_s) and result.makespan_s > 0


@pytest.mark.parametrize("sample_seed", range(4))
def test_observed_temperatures_always_finite(fcfg, run_sim, sample_seed):
    """The shim's observer contract: NaN never reaches a scheduler."""
    params = _random_faults(random.Random(100 + sample_seed))
    params["sensor_dropout_prob"] = max(params["sensor_dropout_prob"], 0.2)
    cfg = fcfg.with_faults(**params)
    sim, result = run_sim(cfg, HotPotatoScheduler(), _hot_tasks(), max_time_s=0.2)
    observed = sim.scheduler.observed_temperatures()
    assert np.isfinite(observed).all()
    assert math.isfinite(result.energy_j)


@pytest.mark.parametrize("sample_seed", range(3))
def test_metamorphic_zero_amplitude(fcfg, run_sim, sample_seed):
    """Zeroing every amplitude/probability of a random schedule recovers
    the fault-free run exactly (the seed alone must not matter)."""
    params = _random_faults(random.Random(200 + sample_seed))
    zeroed = {
        key: (0.0 if ("prob" in key or "sigma" in key or "bias" in key
                      or key == "power_spike_w") else value)
        for key, value in params.items()
    }
    plain_sim, plain = run_sim(
        fcfg, HotPotatoScheduler(), _hot_tasks(), max_time_s=0.2,
        observer=Observer(trace=TraceRecorder()),
    )
    faulted_sim, faulted = run_sim(
        fcfg.with_faults(**zeroed), HotPotatoScheduler(), _hot_tasks(),
        max_time_s=0.2, observer=Observer(trace=TraceRecorder()),
    )
    assert np.array_equal(
        [r.temps_c for r in plain_sim.observer.trace.intervals()],
        [r.temps_c for r in faulted_sim.observer.trace.intervals()],
    )
    assert plain.makespan_s == faulted.makespan_s
    assert plain.energy_j == faulted.energy_j
