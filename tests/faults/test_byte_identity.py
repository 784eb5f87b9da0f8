"""Faults-disabled behaviour is byte-identical to the pre-faults engine.

The acceptance bar for the whole subsystem: a config without faults (and
a zero-amplitude enabled config, metamorphically) must produce *exactly*
the results it always did — same floats bit for bit, not approximately.
"""

import numpy as np

from repro.io import result_to_dict
from repro.obs import Observer, TraceRecorder
from repro.sched.hotpotato_runtime import HotPotatoScheduler
from repro.sched.pcmig import PCMigScheduler
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task


def _tasks():
    return [Task(0, PARSEC["x264"], 2, seed=1), Task(1, PARSEC["canneal"], 2, seed=2)]


def _run(run_sim, cfg, scheduler):
    """Run with a trace recorder attached; return (sim, result)."""
    return run_sim(
        cfg, scheduler, _tasks(), observer=Observer(trace=TraceRecorder())
    )


def _temps(sim):
    """Every interval's end-of-interval core temperatures."""
    return np.array([r.temps_c for r in sim.observer.trace.intervals()])


def _result_fingerprint(sim, result):
    """Everything a run produced, as plain data for exact comparison.

    Wall-clock telemetry (``scheduler_wall_time_s``, profiling) is
    measurement, not simulation output — it is legitimately different on
    every run and excluded here.
    """
    data = result_to_dict(result)
    data.pop("scheduler_wall_time_s", None)
    data.pop("profile", None)
    intervals = sim.observer.trace.intervals()
    data["trace_temps"] = [r.temps_c for r in intervals]
    data["trace_times"] = [(r.time_s, r.dt_s) for r in intervals]
    return data


class TestDisabledIsSeedBehavior:
    def test_repeated_disabled_runs_identical(self, fcfg, run_sim):
        a = _run(run_sim, fcfg, HotPotatoScheduler())
        b = _run(run_sim, fcfg, HotPotatoScheduler())
        assert _result_fingerprint(*a) == _result_fingerprint(*b)

    def test_zero_amplitude_equals_disabled(self, fcfg, run_sim):
        """Metamorphic: enabling the machinery with all amplitudes at zero
        changes nothing, bit for bit — every perturbation is `x + 0.0`-free
        and every engine fault branch is gated."""
        zero = fcfg.with_faults(seed=123)
        for scheduler_cls in (HotPotatoScheduler, PCMigScheduler):
            plain = _run(run_sim, fcfg, scheduler_cls())
            faulted = _run(run_sim, zero, scheduler_cls())
            assert _result_fingerprint(*plain) == _result_fingerprint(*faulted)

    def test_zero_amplitude_trace_bitwise_equal(self, fcfg, run_sim):
        plain, _ = _run(run_sim, fcfg, HotPotatoScheduler())
        faulted, _ = _run(run_sim, fcfg.with_faults(seed=9), HotPotatoScheduler())
        assert np.array_equal(_temps(plain), _temps(faulted))


class TestFaultedRunsAreDeterministic:
    def test_same_fault_seed_same_run(self, fcfg, run_sim):
        cfg = fcfg.with_faults(
            seed=7,
            sensor_noise_sigma_c=0.5,
            sensor_dropout_prob=0.1,
            power_spike_prob=0.05,
            power_spike_w=1.0,
        )
        a = _run(run_sim, cfg, HotPotatoScheduler())
        b = _run(run_sim, cfg, HotPotatoScheduler())
        assert _result_fingerprint(*a) == _result_fingerprint(*b)

    def test_different_fault_seed_different_run(self, fcfg, run_sim):
        # power spikes perturb ground truth, so different fault seeds must
        # show up in the thermal trace (sensor faults alone may not: they
        # only matter when they change a decision)
        def go(seed):
            cfg = fcfg.with_faults(
                seed=seed, power_spike_prob=0.3, power_spike_w=2.0
            )
            return _run(run_sim, cfg, PCMigScheduler())[0]

        a, b = go(1), go(2)
        assert not np.array_equal(_temps(a), _temps(b))
