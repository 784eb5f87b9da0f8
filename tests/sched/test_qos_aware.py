"""QoS-aware scheduler: priority admission, traffic modes, tau relaxation."""

import pytest

from repro.sched.qos_aware import QoSAwareScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task
from repro.workload.qos import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CRITICAL,
    PRIORITY_NORMAL,
    QosSpec,
)


def _task(task_id, n_threads=2, priority=PRIORITY_NORMAL, arrival_s=0.0):
    return Task(
        task_id,
        PARSEC["blackscholes"],
        n_threads,
        arrival_time_s=arrival_s,
        seed=task_id,
        qos=QosSpec(priority=priority),
    )


def _attached(cfg4, **kwargs):
    sched = QoSAwareScheduler(**kwargs)
    sched.attach(SimContext(cfg4))
    return sched


class TestConstruction:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="headroom"):
            QoSAwareScheduler(energy_headroom_c=0.0)
        with pytest.raises(ValueError, match="patience"):
            QoSAwareScheduler(relax_patience=0)

    def test_thresholds_default_to_core_count(self, cfg4):
        sched = _attached(cfg4)
        assert sched.overload_queue_threads == 4
        assert sched.park_queue_threads == 8

    def test_park_below_overload_rejected(self, cfg4):
        with pytest.raises(ValueError, match="park threshold"):
            _attached(cfg4, overload_queue_threads=8, park_queue_threads=4)


class TestTrafficModes:
    def test_mode_follows_queue_pressure(self, cfg4):
        sched = _attached(cfg4)
        sched._update_traffic_mode()
        assert sched._traffic_mode == "normal"
        # two queued 2-thread tasks: at the overload threshold (4)
        sched._queue = [_task(0), _task(1)]
        sched._update_traffic_mode()
        assert sched._traffic_mode == "degraded"
        # four: at the park threshold (8)
        sched._queue = [_task(i) for i in range(4)]
        sched._update_traffic_mode()
        assert sched._traffic_mode == "safe-park"
        sched._queue = []
        sched._update_traffic_mode()
        assert sched._traffic_mode == "normal"

    def test_admissibility_by_mode(self, cfg4):
        sched = _attached(cfg4)
        best_effort = _task(0, priority=PRIORITY_BEST_EFFORT)
        normal = _task(1, priority=PRIORITY_NORMAL)
        critical = _task(2, priority=PRIORITY_CRITICAL)
        sched._traffic_mode = "normal"
        assert all(map(sched._admissible, (best_effort, normal, critical)))
        sched._traffic_mode = "degraded"
        assert not sched._admissible(best_effort)
        assert sched._admissible(normal)
        assert sched._admissible(critical)
        sched._traffic_mode = "safe-park"
        assert not sched._admissible(best_effort)
        assert not sched._admissible(normal)
        assert sched._admissible(critical)

    def test_unannotated_tasks_count_as_normal_priority(self, cfg4):
        sched = _attached(cfg4)
        plain = Task(0, PARSEC["blackscholes"], 2, seed=0)  # no QoS spec
        sched._traffic_mode = "degraded"
        assert sched._admissible(plain)
        sched._traffic_mode = "safe-park"
        assert not sched._admissible(plain)


class TestPriorityAdmission:
    def test_critical_admitted_before_earlier_best_effort(self, cfg4):
        """Priority beats arrival order when the queue drains."""
        sched = _attached(cfg4)
        low = _task(0, n_threads=4, priority=PRIORITY_BEST_EFFORT)
        high = _task(1, n_threads=4, priority=PRIORITY_CRITICAL, arrival_s=0.001)
        # fill the chip so both tasks queue, then free it
        filler = _task(9, n_threads=4)
        sched.on_task_arrival(filler, 0.0)
        sched.on_task_arrival(low, 0.0)
        sched.on_task_arrival(high, 0.001)
        assert sched.queue_length == 2
        sched.on_task_complete(filler, 0.01)
        # only one 4-thread task fits; the critical one must have won
        assert high not in sched._queue
        assert low in sched._queue

    def test_light_load_admits_everything_fifo(self, cfg4):
        sched = _attached(cfg4)
        first = _task(0, n_threads=2)
        second = _task(1, n_threads=2, priority=PRIORITY_BEST_EFFORT)
        sched.on_task_arrival(first, 0.0)
        sched.on_task_arrival(second, 0.001)
        assert sched.queue_length == 0

    def test_parked_tasks_drain_when_pressure_drops(self, cfg4):
        """Soft shedding: parked best-effort tasks are admitted again as
        completions bring the queue back under the threshold."""
        sched = _attached(cfg4)
        filler = _task(9, n_threads=4)
        sched.on_task_arrival(filler, 0.0)
        queued = [
            _task(i, n_threads=2, priority=PRIORITY_BEST_EFFORT)
            for i in range(3)
        ]
        for task in queued:
            sched.on_task_arrival(task, 0.0)
        # 6 queued threads >= overload threshold: best-effort parked
        assert sched._traffic_mode == "degraded"
        assert len(sched._parked_tasks()) == 3
        sched.on_task_complete(filler, 0.01)
        # chip idle + all-parked queue: anti-starvation admits exactly
        # one task; the rest stay parked (pressure is still at the
        # threshold)
        assert sched.queue_length == 2
        assert sched._traffic_mode == "degraded"
        sched.on_task_complete(queued[0], 0.02)
        # now the second admission drops pressure below the threshold,
        # the mode relaxes, and the whole queue drains
        assert sched._traffic_mode == "normal"
        assert sched._parked_tasks() == []
        assert sched.queue_length == 0

    def test_idle_chip_never_starves_an_all_parked_queue(self, cfg4):
        """An all-best-effort queue must not self-lock: its own pressure
        holds the degraded mode, but an idle chip admits the best queued
        task anyway."""
        sched = _attached(cfg4)
        for index in range(4):
            sched.on_task_arrival(
                _task(index, n_threads=2, priority=PRIORITY_BEST_EFFORT),
                0.0,
            )
        # something was admitted despite every task being parkable
        assert sched.queue_length < 4


class TestEnergyRelaxation:
    def test_relaxes_after_sustained_headroom(self, cfg4, rng):
        """On the cool 2x2 chip the observed headroom is large, so after
        ``relax_patience`` decisions the scheduler backs the rotation off
        by one rung and reports it."""
        sched = QoSAwareScheduler(relax_patience=3)
        sim = IntervalSimulator(
            cfg4,
            sched,
            [_task(0, n_threads=2)],
            ctx=SimContext(cfg4),
        )
        result = sim.run(max_time_s=0.05)
        assert sched.hotpotato.tau_bias == 1
        metrics = sched.metrics()
        assert metrics["qos_relax_events"] >= 1.0
        assert metrics["qos_tau_relaxed"] == 1.0
        assert metrics["qos_relaxed_decisions"] >= 1.0

    def test_huge_margin_never_relaxes(self, cfg4):
        """With an unreachable headroom requirement the bias stays 0 and
        the scheduler is exactly HotPotato."""
        sched = QoSAwareScheduler(energy_headroom_c=1000.0)
        sim = IntervalSimulator(
            cfg4,
            sched,
            [_task(0, n_threads=2)],
            ctx=SimContext(cfg4),
        )
        sim.run(max_time_s=0.05)
        assert sched.hotpotato.tau_bias == 0
        assert sched.metrics()["qos_relax_events"] == 0.0

    def test_headroom_dip_resets_bias_immediately(self, cfg4):
        sched = _attached(cfg4, relax_patience=1)
        sched.hotpotato.tau_bias = 1
        sched._headroom_streak = 5
        # monkey-patch the observation to a hot chip
        sched.observed_temperatures = lambda: __import__("numpy").array(
            [69.9] * 4
        )
        sched._update_energy_relaxation(0.0)
        assert sched.hotpotato.tau_bias == 0
        assert sched._headroom_streak == 0


class TestDecisionAnnotations:
    def test_decisions_carry_qos_annotations(self, cfg4):
        sched = QoSAwareScheduler()
        sim = IntervalSimulator(
            cfg4,
            sched,
            [_task(0, n_threads=2)],
            ctx=SimContext(cfg4),
        )
        sim.run(max_time_s=0.01)
        decision = sched.decide(0.01)
        assert "qos_traffic_mode" in decision.annotations
        assert "qos_parked_tasks" in decision.annotations
        assert "qos_tau_relaxed" in decision.annotations

    def test_metrics_extend_hotpotato_counters(self, cfg4):
        sched = _attached(cfg4)
        metrics = sched.metrics()
        for key in (
            "qos_traffic_mode",
            "qos_parked_tasks",
            "qos_parked_peak",
            "qos_shed_decisions",
            "qos_relaxed_decisions",
            "qos_relax_events",
            "qos_tau_relaxed",
        ):
            assert key in metrics
        assert "queue_length" in metrics  # the base counters survive
