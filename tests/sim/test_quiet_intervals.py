"""Quiet intervals: the cheap paths are exact, and they stay in use.

An interval that repeats the last one takes cheap paths through HotPotato's
``decide()`` (a memo of the last full decision), PCMig's violation
predictor (a certified affine screen), DTM (nothing to do on a cool chip),
the thermal step and the power history (``docs/performance.md``, *Quiet
intervals*).  Each must decide and output exactly what the full path does:

- the predictor screen's proven rounding bound stays below its margin on
  every platform, and the screened value is within that bound of the
  exact prediction;
- with the screen and the memo switched off, every scheduler's decision
  trail is the same as with them on;
- the DTM fast path leaves the controller where the full update and
  apply leave it, events and counters included;
- the power history hands out, during a run of equal records, the window
  a history fed fresh copies of the same samples computes.

On the seeded fig4b-light cells the memo serves more than 40 % of
HotPotato's decisions and the screen settles at least 99 % of PCMig's
predictions, so a fast path that silently stops firing fails here.
"""

import math

import numpy as np
import pytest

from repro.config import table1
from repro.experiments import fig4b
from repro.sched import pcmig
from repro.sched.hotpotato_dvfs import HotPotatoDvfsScheduler
from repro.sched.hotpotato_runtime import HotPotatoScheduler
from repro.sched.naive import PeakFrequencyScheduler
from repro.sched.pcmig import (
    PREDICT_ENVELOPE_C,
    PREDICT_ENVELOPE_W,
    PREDICT_MARGIN_C,
    PCMigScheduler,
    ViolationPredictor,
)
from repro.sim.context import SimContext
from repro.sim.dtm import DtmController
from repro.sim.engine import IntervalSimulator, _PowerHistory
from repro.stacked import Mesh3D, build_rc_model_3d, default_stacked_stack
from repro.thermal import ThermalDynamics
from repro.workload.generator import homogeneous_fill, materialize

AMBIENT_C = 45.0
HORIZON_S = 5e-3


@pytest.fixture(scope="module")
def platforms(dynamics16, dynamics64):
    mesh3d = Mesh3D(4, 4, 2)
    return {
        "mesh4x4": dynamics16,
        "table1": dynamics64,
        "stack3d": ThermalDynamics(build_rc_model_3d(mesh3d, default_stacked_stack())),
    }


# -- PCMig's predictor screen ---------------------------------------------


@pytest.mark.parametrize("platform", ["table1", "mesh4x4", "stack3d"])
def test_screen_bound_is_below_the_margin(platforms, platform):
    dynamics = platforms[platform]
    predictor = ViolationPredictor(dynamics, AMBIENT_C, 0.3, HORIZON_S)
    envelope = np.full(dynamics.model.n_cores, PREDICT_ENVELOPE_W)
    bound = predictor.error_bound(envelope, PREDICT_ENVELOPE_C)
    assert predictor.certified
    assert 0 < bound <= PREDICT_MARGIN_C / 100


@pytest.mark.parametrize("platform", ["table1", "mesh4x4", "stack3d"])
def test_screened_prediction_is_within_the_bound(platforms, platform):
    dynamics = platforms[platform]
    n_cores = dynamics.model.n_cores
    predictor = ViolationPredictor(dynamics, AMBIENT_C, 0.3, HORIZON_S)
    rng = np.random.default_rng(5)
    for _ in range(40):
        power = rng.uniform(0.0, 20.0, n_cores)
        temps = AMBIENT_C + rng.uniform(-5.0, 60.0, n_cores)
        predictor._prepare(power)
        rise = temps - AMBIENT_C
        screened = predictor._offset + predictor._gain @ rise
        exact = predictor._exact(power, temps)
        bound = predictor.error_bound(power, np.abs(rise))
        assert np.max(np.abs(screened - exact)) <= bound


def test_screen_never_hides_a_violation(platforms):
    """Readings placed within a hair of the trigger: the screen settles
    only predictions the exact step puts at or below it."""
    dynamics = platforms["table1"]
    n_cores = dynamics.model.n_cores
    predictor = ViolationPredictor(dynamics, AMBIENT_C, 0.3, HORIZON_S)
    rng = np.random.default_rng(9)
    cores = np.arange(n_cores)
    for _ in range(40):
        power = rng.uniform(0.3, 12.0, n_cores)
        temps = AMBIENT_C + rng.uniform(0.0, 40.0, n_cores)
        predictor._prepare(power)
        exact = predictor._exact(power, temps)
        for offset in (-1e-3, -2 * PREDICT_MARGIN_C, 0.0, 1e-9):
            threshold = float(exact.max()) + offset
            if predictor.predict(power, temps, cores, threshold) is None:
                assert exact.max() <= threshold


# -- decision trails with the fast paths off -------------------------------


def _state_of(scheduler):
    """The per-interval state a memoized decision must advance as the
    full path does (HotPotato only)."""
    if not isinstance(scheduler, HotPotatoScheduler):
        return None
    return (
        scheduler._intervals_since_refresh,
        scheduler._epoch,
        scheduler._epoch_started_s,
        scheduler._unpushed,
        scheduler._settled,
        scheduler._estimates.tobytes(),
        scheduler._power_at_refresh.tobytes(),
        scheduler.hotpotato.state_fingerprint(),
    )


def _trail(scheduler_cls):
    """Every decision of one fig4b-light cell, with the scheduler's state
    after it, the result and the scheduler."""
    cfg = table1()
    specs = fig4b._cell_specs(2.0, 10, 7, 2.0)
    scheduler = scheduler_cls()
    decide = scheduler.decide
    trail = []

    def recorded(now_s):
        decision = decide(now_s)
        trail.append(
            (
                now_s,
                tuple(decision.placements.items()),
                np.asarray(decision.frequencies).tobytes(),
                decision.tau_s,
                _state_of(scheduler),
            )
        )
        return decision

    scheduler.decide = recorded
    sim = IntervalSimulator(cfg, scheduler, materialize(specs), ctx=SimContext(cfg))
    result = sim.run(max_time_s=60.0)
    return trail, result, scheduler


@pytest.mark.parametrize(
    "scheduler_cls", [PCMigScheduler, HotPotatoScheduler, HotPotatoDvfsScheduler]
)
def test_trails_match_with_fast_paths_off(monkeypatch, scheduler_cls):
    fast, fast_result, fast_scheduler = _trail(scheduler_cls)
    # no prediction can be screened, and no decision memoized
    monkeypatch.setattr(pcmig, "PREDICT_MARGIN_C", math.inf)
    refresh = HotPotatoScheduler._refresh_estimates
    monkeypatch.setattr(
        HotPotatoScheduler,
        "_refresh_estimates",
        lambda self, known, measured: refresh(self, known, measured) and False,
    )
    slow, slow_result, slow_scheduler = _trail(scheduler_cls)
    assert fast == slow
    assert fast_result.tasks == slow_result.tasks
    assert fast_result.energy_j == slow_result.energy_j
    assert fast_result.peak_temperature_c == slow_result.peak_temperature_c
    fast_metrics, slow_metrics = fast_scheduler.metrics(), slow_scheduler.metrics()
    if scheduler_cls is PCMigScheduler:
        assert fast_metrics["predict_screened"] > 0
        assert slow_metrics["predict_exact"] > fast_metrics["predict_exact"]
    else:
        assert fast_metrics["decide_reused"] > 0
        assert slow_metrics["decide_reused"] == 0


def test_fig4b_light_cells_take_the_fast_paths():
    cfg = table1().with_observability(metrics=True)
    point = fig4b.run(config=cfg, arrival_rates_per_s=(2.0,), n_tasks=10).points[0]
    hotpotato = point.hotpotato.metrics_snapshot
    decides = hotpotato["scheduler.decision_latency_s.count"]
    assert hotpotato["sched.decide_reused"] > 0.4 * decides
    pcmig_snapshot = point.pcmig.metrics_snapshot
    screened = pcmig_snapshot["sched.predict_screened"]
    exact = pcmig_snapshot["sched.predict_exact"]
    assert screened >= 0.99 * (screened + exact)


# -- DTM on a cool chip -----------------------------------------------------


def _reference_step(dtm, temps, freqs, dt):
    dtm.update(temps)
    return dtm.apply(freqs, dt)


def _fast_step(dtm, temps, freqs, dt):
    """The engine's DTM phase."""
    if dtm.cool(temps):
        return np.array(freqs, dtype=float)
    return _reference_step(dtm, temps, freqs, dt)


def _state(dtm):
    return (
        dtm.throttled.tobytes(),
        dtm.trigger_count,
        dtm.throttled_core_time_s,
    )


@pytest.mark.parametrize("seed", range(6))
def test_dtm_fast_path_matches_update_and_apply(seed):
    rng = np.random.default_rng(seed)
    n_cores, threshold, hysteresis = 8, 70.0, 2.0
    fast = DtmController(n_cores, threshold, hysteresis, f_min_hz=1e9)
    reference = DtmController(n_cores, threshold, hysteresis, f_min_hz=1e9)
    freqs = np.full(n_cores, 4e9)
    cool_steps = 0
    for step in range(400):
        # mostly cool, with excursions above the threshold and into the
        # hysteresis band, NaN readings and stuck cores
        temps = rng.uniform(60.0, threshold, n_cores)
        if rng.random() < 0.2:
            temps[rng.integers(n_cores)] = rng.uniform(threshold - hysteresis, 75.0)
        if rng.random() < 0.05:
            temps[rng.integers(n_cores)] = np.nan
        if rng.random() < 0.05:
            temps[rng.integers(n_cores)] = threshold  # not above it
        if rng.random() < 0.03:
            stuck = rng.random(n_cores) < 0.2
            fast.set_stuck(stuck)
            reference.set_stuck(stuck)
        cool_steps += fast.cool(temps)
        out_fast = _fast_step(fast, temps, freqs, 5e-4)
        out_reference = _reference_step(reference, temps, freqs, 5e-4)
        assert out_fast.tobytes() == out_reference.tobytes()
        assert _state(fast) == _state(reference)
    assert cool_steps > 0 and fast.trigger_count > 0


def _dtm_run(monkeypatch, fast: bool):
    if not fast:
        monkeypatch.setattr(DtmController, "cool", lambda self, temps: False)
    cfg = table1().with_observability(metrics=True)
    tasks = materialize(homogeneous_fill("blackscholes", 64, seed=42, work_scale=2.0))
    sim = IntervalSimulator(cfg, PeakFrequencyScheduler(), tasks, record_events=True)
    result = sim.run(max_time_s=0.2)
    events = [event for event in sim.events if "Dtm" in type(event).__name__]
    return events, result, sim.observer.metrics.snapshot(exclude_timing=True)


def test_dtm_events_are_identical_with_observers_on(monkeypatch):
    fast_events, fast_result, fast_metrics = _dtm_run(monkeypatch, True)
    slow_events, slow_result, slow_metrics = _dtm_run(monkeypatch, False)
    assert fast_result.dtm_triggers > 0
    assert fast_events == slow_events
    assert fast_metrics == slow_metrics
    assert fast_result.dtm_core_time_s == slow_result.dtm_core_time_s


# -- the power history over a quiet run -------------------------------------


def test_quiet_window_equals_a_fresh_computation():
    """Runs of records with the same slot and power arrays hand out the
    window of a history that sees fresh copies of every sample."""
    rng = np.random.default_rng(4)
    quiet, fresh = _PowerHistory(10e-3), _PowerHistory(10e-3)
    now, reused, last = 0.0, 0, None
    slots, power, dt = np.array([0, 2, 3]), rng.uniform(1.0, 9.0, 3), 5e-4
    # runs outlast the window, and a new slot set leaves samples of slots
    # that stopped recording in the column before the run
    for _ in range(2000):
        if rng.random() < 0.02:
            slots = np.sort(rng.choice(6, size=3, replace=False))
        if rng.random() < 0.01:
            power = rng.uniform(1.0, 9.0, 3)
        if rng.random() < 0.005:
            dt = float(rng.choice([2.5e-4, 5e-4, 1e-3]))
        quiet.record(slots, now, power, dt)
        fresh.record(slots.copy(), now, power.copy(), dt)
        if rng.random() < 0.005:
            quiet.forget(int(slots[0]))
            fresh.forget(int(slots[0]))
        if rng.random() < 0.005 and quiet._has.shape[0] < 64:
            quiet.reserve(2 * quiet._has.shape[0])
            fresh.reserve(2 * fresh._has.shape[0])
        window, reference = quiet.window(), fresh.window()
        reused += window is last
        last = window
        for got, want in zip(window, reference):
            assert got.tobytes() == want.tobytes()
        now += dt
    assert reused > 0
