"""Lock-step batched sweeps are byte-identical to solo runs.

The acceptance bar for ``repro.sim.batch``: driving S simulators through
one :class:`BatchedSimulatorSet` — including both detach paths (finish
and interval-length divergence) and fault-injected configs — produces
*exactly* the results of S independent ``sim.run()`` calls.  Same floats
bit for bit, every interval's core temperatures included.
"""

import numpy as np
import pytest

from repro import config
from repro.io import result_to_dict
from repro.obs import Observer, TraceRecorder
from repro.sched.fixed_rotation import FixedRotationScheduler
from repro.sched.hotpotato_runtime import HotPotatoScheduler
from repro.sched.pcmig import PCMigScheduler
from repro.sim import batch as batch_module
from repro.sim.batch import BatchedSimulatorSet, _BatchCellView
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.thermal.matex import ThermalDynamics
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task

MAX_TIME_S = 0.25


@pytest.fixture(scope="module")
def cfg():
    return config.small_test()


@pytest.fixture(scope="module")
def model(cfg):
    return SimContext(cfg).thermal_model


def _tasks(variant):
    """Per-cell workloads with staggered finish times (exercises the
    finish-detach path: cells leave the batch one by one)."""
    plans = [
        [("x264", 2, 1), ("canneal", 2, 2)],
        [("blackscholes", 2, 3)],
        [("swaptions", 1, 4), ("streamcluster", 2, 5)],
        [("canneal", 2, 6)],
    ]
    return [
        Task(i, PARSEC[name], threads, seed=seed)
        for i, (name, threads, seed) in enumerate(plans[variant])
    ]


def _recorded(cfg, scheduler, tasks, ctx):
    """A simulator with a trace recorder attached."""
    return IntervalSimulator(
        cfg, scheduler, tasks, ctx=ctx, observer=Observer(trace=TraceRecorder())
    )


def _fingerprints(sims, results):
    """Everything each run produced, wall-clock telemetry excluded."""
    out = []
    for sim, result in zip(sims, results):
        data = result_to_dict(result)
        data.pop("scheduler_wall_time_s", None)
        data.pop("profile", None)
        intervals = sim.observer.trace.intervals()
        data["trace_temps"] = [r.temps_c for r in intervals]
        data["trace_times"] = [(r.time_s, r.dt_s) for r in intervals]
        out.append(data)
    return out


def _solo_fingerprints(cfg, model, scheduler_cls, n_cells=4):
    sims = [
        _recorded(cfg, scheduler_cls(), _tasks(variant), SimContext(cfg, model))
        for variant in range(n_cells)
    ]
    return _fingerprints(sims, [sim.run(max_time_s=MAX_TIME_S) for sim in sims])


def _batched_sims(cfg, model, scheduler_cls, n_cells=4):
    dynamics = ThermalDynamics(model)
    return [
        _recorded(
            cfg,
            scheduler_cls(),
            _tasks(variant),
            SimContext(cfg, dynamics=dynamics),
        )
        for variant in range(n_cells)
    ]


class TestByteIdentity:
    @pytest.mark.parametrize(
        "scheduler_cls", [HotPotatoScheduler, PCMigScheduler]
    )
    @pytest.mark.parametrize("faults", [False, True])
    def test_batched_equals_solo(self, cfg, model, scheduler_cls, faults):
        run_cfg = (
            cfg.with_faults(
                seed=7,
                sensor_noise_sigma_c=0.4,
                sensor_dropout_prob=0.05,
                power_spike_prob=0.05,
                power_spike_w=1.0,
            )
            if faults
            else cfg
        )
        solo = _solo_fingerprints(run_cfg, model, scheduler_cls)
        sims = _batched_sims(run_cfg, model, scheduler_cls)
        batch = BatchedSimulatorSet(sims)
        assert _fingerprints(sims, batch.run_all(MAX_TIME_S)) == solo
        stats = batch.stats()
        assert stats["width_initial"] == 4
        assert stats["detached_finished"] + stats["detached_diverged"] == 4
        assert stats["rounds"] >= 1

    def test_divergent_cell_detaches_and_matches(self, cfg, model, monkeypatch):
        """A cell whose rotation interval matches nobody leaves the batch
        mid-sweep via the divergence path — and still matches its solo run."""
        monkeypatch.setattr(batch_module, "DEFAULT_DETACH_AFTER", 2)

        def sims(ctx_of):
            taus = (0.5e-3, 0.5e-3, 0.8e-3)  # the odd one diverges
            return [
                _recorded(
                    cfg, FixedRotationScheduler(tau_s=tau), _tasks(i % 4), ctx_of()
                )
                for i, tau in enumerate(taus)
            ]

        solo_sims = sims(lambda: SimContext(cfg, model))
        solo = [s.run(max_time_s=MAX_TIME_S) for s in solo_sims]
        dynamics = ThermalDynamics(model)
        batched_sims = sims(lambda: SimContext(cfg, dynamics=dynamics))
        batch = BatchedSimulatorSet(batched_sims)
        batched = batch.run_all(MAX_TIME_S)
        assert batch.stats()["detached_diverged"] >= 1
        assert _fingerprints(batched_sims, batched) == _fingerprints(
            solo_sims, solo
        )

    def test_per_sim_horizons(self, cfg, model):
        """A horizon sequence bounds each cell independently."""
        horizons = [0.1, 0.25]
        solo_sims = [
            _recorded(
                cfg, HotPotatoScheduler(), _tasks(variant), SimContext(cfg, model)
            )
            for variant in range(len(horizons))
        ]
        solo = [
            sim.run(max_time_s=horizon)
            for sim, horizon in zip(solo_sims, horizons)
        ]
        sims = _batched_sims(cfg, model, HotPotatoScheduler, 2)
        batched = BatchedSimulatorSet(sims).run_all(horizons)
        assert _fingerprints(sims, batched) == _fingerprints(solo_sims, solo)


class TestDriverContract:
    def test_requires_shared_dynamics(self, cfg, model):
        sims = [
            IntervalSimulator(
                cfg,
                HotPotatoScheduler(),
                _tasks(i),
                ctx=SimContext(cfg, model),  # each builds its own dynamics
            )
            for i in range(2)
        ]
        with pytest.raises(ValueError, match="share one ThermalDynamics"):
            BatchedSimulatorSet(sims)

    def test_rejects_empty_and_bad_detach(self, cfg, model):
        with pytest.raises(ValueError, match="at least one"):
            BatchedSimulatorSet([])

    def test_cell_view_refuses_direct_stepping(self, cfg, model):
        """While a cell is attached, its adopted state is the batch view
        and stepping it directly must fail loudly."""
        sims = _batched_sims(cfg, model, HotPotatoScheduler, 2)
        batch = BatchedSimulatorSet(sims)
        probed = []
        complete = sims[0].complete_interval

        def complete_and_probe(plan):
            state = sims[0].thermal_state
            if not probed and isinstance(state, _BatchCellView):
                with pytest.raises(RuntimeError, match="fused batch"):
                    state.step(np.zeros(cfg.n_cores), 1e-3)
                probed.append(True)
            return complete(plan)

        sims[0].complete_interval = complete_and_probe
        batch.run_all(MAX_TIME_S)
        assert probed
