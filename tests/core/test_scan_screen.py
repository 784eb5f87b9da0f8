"""Soundness of HotPotato's certified scan screen and tau-ladder exit.

The migration and admission scans skip Algorithm 1 for a target ring when
a lower bound built from the design-time ring response tables already
fails the scan's acceptance test.  On seeded random states of every
platform (8x8 Table I, 4x4 mesh, 3D stack), at every rung of the tau
ladder and for moved and arriving threads, these tests pin:

- the proven rounding-error bound of screen and Algorithm 1 together is
  at most ``SCREEN_MARGIN_C``;
- the screened coolest-slot peak is within ``SCREEN_MARGIN_C / 100`` of
  the exact one, and the certified bound never exceeds it, so the screen
  never skips a ring that exact evaluation would accept;
- ``_select_tau``'s rotation-off exit picks the rung the full ladder picks.

HotPotato also scores its own schedule from the same tables.  These tests
pin, at every rung, that the proven bound of that evaluation is at most
``SCREEN_MARGIN_C`` and that it is within ``SCREEN_MARGIN_C / 100`` of
Algorithm 1; that ``_select_tau`` picks the full ladder's rung, also with
``T_DTM`` inside the margin band of a rung peak, where it falls back to
Algorithm 1; and that ``refresh()`` walks seeded drift sequences through
the same states as with every test left to Algorithm 1.

The coolest-slot choice itself is read from the same screened peaks:
every slot outside the near set (within ``2 SCREEN_MARGIN_C`` of the
coolest screened peak) is hotter than the exact minimum, and Algorithm 1
on the near set returns the same peak bits and slot as on all free slots,
also where an empty rotating ring ties its slots.  Seeded admissions,
exits, ``rebalance`` and ``_mitigate`` runs walk through the same states
as with every choice left to Algorithm 1.
"""

import math

import numpy as np
import pytest

from repro.arch import AmdRings, Mesh
from repro.core import PeakTemperatureCalculator
from repro.core import hotpotato
from repro.core.hotpotato import SCREEN_MARGIN_C, HotPotato, ThreadInfo
from repro.stacked import Amd3dRings, Mesh3D, build_rc_model_3d, default_stacked_stack
from repro.thermal import ThermalDynamics

AMBIENT_C = 45.0
T_DTM_C = 70.0
DELTA_C = 1.0


@pytest.fixture(scope="module")
def platforms(dynamics16, dynamics64):
    mesh3d = Mesh3D(4, 4, 2)
    return {
        "table1": (dynamics64, AmdRings(Mesh(8, 8))),
        "mesh4x4": (dynamics16, AmdRings(Mesh(4, 4))),
        "stack3d": (
            ThermalDynamics(build_rc_model_3d(mesh3d, default_stacked_stack())),
            Amd3dRings(mesh3d),
        ),
    }


def _random_state(dynamics, rings, rng, fill):
    """A HotPotato with threads placed straight into random slots."""
    hp = HotPotato(
        rings,
        PeakTemperatureCalculator(dynamics, AMBIENT_C),
        t_dtm_c=T_DTM_C,
        headroom_delta_c=DELTA_C,
    )
    for ring in range(rings.n_rings):
        for slot in range(rings.capacity(ring)):
            if rng.random() < fill:
                thread = f"t{ring}.{slot}"
                info = ThreadInfo(thread, float(rng.uniform(0.5, 9.0)), 1.0)
                hp._enroll(info)
                hp._place(thread, ring, slot)
    return hp


def _check_ring(hp, base, effective_tau, thread, ring, free, thresholds):
    """Screen against Algorithm 1 for one (thread, target ring) pair."""
    bound, screened, near = hp._screen(base, effective_tau, thread, ring, free)
    placed = thread in hp._location
    if placed:
        home = hp._location[thread]
        hp._unplace(thread)
    exact, slot = hp._best_slot_in_ring(ring, thread, free)
    peaks = {j: hp._best_slot_in_ring(ring, thread, [j])[0] for j in free}
    proven = max(hp.screen_error_bound(thread, ring, j) for j in free)
    if placed:
        hp._place(thread, *home)
    assert proven <= SCREEN_MARGIN_C
    assert abs(screened - exact) < SCREEN_MARGIN_C / 100
    assert bound == screened - SCREEN_MARGIN_C
    assert bound <= exact
    for threshold in thresholds:
        if exact < threshold:  # accepted by the exact scan ...
            assert bound < threshold  # ... so never skipped by the screen
    # the near set is in slot order and holds every slot that can be the
    # coolest; a lone near slot passes every test passed at the top of
    # its band
    assert near == sorted(near) and set(near) <= set(free) and slot in near
    assert all(peaks[j] > exact for j in free if j not in near)
    assert exact <= screened + SCREEN_MARGIN_C


@pytest.mark.parametrize("platform", ["table1", "mesh4x4", "stack3d"])
def test_screen_is_sound_on_every_rung(platforms, platform):
    dynamics, rings = platforms[platform]
    rng = np.random.default_rng(11)
    for rung in range(len(_random_state(dynamics, rings, rng, 0.0)._tau_ladder)):
        for fill in (0.3, 0.6):
            hp = _random_state(dynamics, rings, rng, fill)
            hp._tau_index = rung
            current = hp.peak_temperature()
            thresholds = (current - 1e-9, T_DTM_C, T_DTM_C - DELTA_C)
            base, effective_tau = hp._screen_base()
            free = hp._free_by_ring()
            # an arriving thread against every ring with a free slot
            hp._enroll(ThreadInfo("new", float(rng.uniform(0.5, 9.0)), 1.0))
            for ring in range(rings.n_rings):
                if free[ring]:
                    _check_ring(
                        hp, base, effective_tau, "new", ring, free[ring], thresholds
                    )
            hp._drop("new")
            # placed threads moved to every other ring with a free slot
            placed = sorted(hp._location)
            for thread in rng.choice(placed, size=min(3, len(placed)), replace=False):
                without = hp._without(base, effective_tau, thread)
                own = hp.ring_of(thread)
                for ring in range(rings.n_rings):
                    if ring != own and free[ring]:
                        _check_ring(
                            hp, without, effective_tau, thread, ring, free[ring],
                            thresholds,
                        )


def _ladder_peaks(hp):
    """Algorithm-1 peak of the current slots at every rung of the ladder."""
    seqs, taus = [], []
    for tau in hp._tau_ladder:
        seq, effective_tau = hp._power_seq_for(hp._slots, tau)
        seqs.append(seq)
        taus.append(effective_tau)
    return hp.calculator.peak_batch(seqs, taus)


def _full_ladder_choice(hp):
    """The rung ``_select_tau`` picks when it scores the whole ladder."""
    peaks = _ladder_peaks(hp)
    target = max(hp.t_dtm_c - hp.headroom_delta_c, float(np.min(peaks)) + 0.5)
    return next(i for i, peak in enumerate(peaks) if peak <= target)


@pytest.mark.parametrize("platform", ["table1", "mesh4x4", "stack3d"])
def test_tau_exit_picks_the_full_ladder_choice(platforms, platform):
    dynamics, rings = platforms[platform]
    rng = np.random.default_rng(5)
    exits = 0
    for _ in range(16):
        hp = _random_state(dynamics, rings, rng, float(rng.uniform(0.2, 0.9)))
        static_peak = hp._peak_for(hp._slots, None)
        # T_DTM around the static peak: the exit fires on some states only
        hp.t_dtm_c = static_peak + DELTA_C + float(rng.uniform(-2.0, 2.0))
        want = _full_ladder_choice(hp)
        hp._select_tau()
        assert hp._tau_index == want
        exits += static_peak <= hp.t_dtm_c - DELTA_C
    assert 0 < exits < 16


@pytest.mark.parametrize("platform", ["table1", "mesh4x4", "stack3d"])
def test_incumbent_from_tables_is_sound_on_every_rung(platforms, platform):
    dynamics, rings = platforms[platform]
    rng = np.random.default_rng(17)
    for rung in range(len(_random_state(dynamics, rings, rng, 0.0)._tau_ladder)):
        for fill in (0.0, 0.3, 0.6, 1.0):
            hp = _random_state(dynamics, rings, rng, fill)
            hp._tau_index = rung
            seq, effective_tau = hp._power_seq_for(hp._slots, hp.tau_s)
            exact = hp.calculator.boundary_rise(seq, effective_tau)
            rise = hp._incumbent_rise(effective_tau)
            tiled = exact[np.arange(rise.shape[0]) % exact.shape[0]]
            proven = hp.incumbent_error_bound()
            assert proven <= SCREEN_MARGIN_C
            assert np.max(np.abs(rise - tiled)) < SCREEN_MARGIN_C / 100
            screened = hp._screened_incumbent(effective_tau)
            assert abs(screened - hp.peak_temperature()) <= proven


@pytest.mark.parametrize("platform", ["table1", "mesh4x4", "stack3d"])
def test_tau_choice_in_the_margin_band_falls_back(platforms, platform):
    dynamics, rings = platforms[platform]
    rng = np.random.default_rng(23)
    fallbacks = 0
    for _ in range(16):
        hp = _random_state(dynamics, rings, rng, float(rng.uniform(0.2, 0.9)))
        peaks = _ladder_peaks(hp)
        # T_DTM - Delta within the margin of one rung's peak
        rung = int(rng.integers(peaks.shape[0]))
        band = float(rng.uniform(-1.0, 1.0)) * SCREEN_MARGIN_C
        hp.t_dtm_c = float(peaks[rung]) + DELTA_C + band
        want = _full_ladder_choice(hp)
        before = hp.screen_incumbent_exact
        hp._select_tau()
        assert hp._tau_index == want
        fallbacks += hp.screen_incumbent_exact > before
    assert fallbacks > 0


def _drift_run(dynamics, rings, seed):
    """Admit threads, then drift their powers and refresh; the state
    after every step, and the incumbent tests the tables settled."""
    rng = np.random.default_rng(seed)
    hp = HotPotato(
        rings,
        PeakTemperatureCalculator(dynamics, AMBIENT_C),
        t_dtm_c=T_DTM_C,
        headroom_delta_c=DELTA_C,
    )
    capacity = sum(rings.capacity(ring) for ring in range(rings.n_rings))
    powers = {}
    for i in range(int(0.7 * capacity)):
        thread = f"t{i}"
        powers[thread] = float(rng.uniform(0.5, 9.0))
        hp.admit(ThreadInfo(thread, powers[thread], float(rng.uniform(0.5, 3.0))))
    states = [hp.state_fingerprint()]
    for step in range(24):
        # a slow walk with sudden jumps, as the 10 ms window averages move
        for thread in sorted(powers):
            scale = 2.5 if rng.random() < 0.1 else 1.1
            power = powers[thread] * float(rng.uniform(1 / scale, scale))
            powers[thread] = min(max(power, 0.3), 12.0)
            hp.update_power(thread, powers[thread])
        if step % 6 == 5:
            # T_DTM - Delta inside the margin band of the incumbent's peak
            hp.t_dtm_c = hp.peak_temperature() + DELTA_C + SCREEN_MARGIN_C / 2
        hp.refresh()
        states.append(hp.state_fingerprint())
    return states, hp.screen_incumbent


@pytest.mark.parametrize("platform", ["table1", "mesh4x4", "stack3d"])
def test_refresh_matches_the_all_exact_reference(platforms, platform, monkeypatch):
    dynamics, rings = platforms[platform]
    for seed in (1, 2):
        states, settled = _drift_run(dynamics, rings, seed)
        with monkeypatch.context() as patch:
            # an infinite margin leaves every test to Algorithm 1
            patch.setattr(hotpotato, "SCREEN_MARGIN_C", math.inf)
            reference, none_settled = _drift_run(dynamics, rings, seed)
        assert none_settled == 0 and settled > 0
        assert len(set(states)) > 2
        assert states == reference


def _with_empty_rotating_ring(dynamics, rings, rng):
    """A random rotating state with one multi-slot ring emptied."""
    hp = _random_state(dynamics, rings, rng, float(rng.uniform(0.3, 0.7)))
    hp._tau_index = int(rng.integers(1, len(hp._tau_ladder)))
    wide = [ring for ring in range(rings.n_rings) if rings.capacity(ring) > 1]
    empty = int(rng.choice(wide))
    for thread in [t for t in hp._slots[empty] if t is not None]:
        hp._unplace(thread)
        hp._drop(thread)
    return hp


@pytest.mark.parametrize("platform", ["table1", "mesh4x4", "stack3d"])
def test_near_set_scan_matches_the_full_scan(platforms, platform):
    dynamics, rings = platforms[platform]
    rng = np.random.default_rng(29)
    ties = 0
    for _ in range(6):
        hp = _with_empty_rotating_ring(dynamics, rings, rng)
        base, effective_tau = hp._screen_base()
        free = hp._free_by_ring()
        hp._enroll(ThreadInfo("new", float(rng.uniform(0.5, 9.0)), 1.0))
        for ring in range(rings.n_rings):
            if not free[ring]:
                continue
            _, _, near = hp._screen(base, effective_tau, "new", ring, free[ring])
            peak, slot = hp._best_slot_in_ring(ring, "new", free[ring])
            near_peak, near_slot = hp._best_slot_in_ring(ring, "new", near)
            assert (near_peak.hex(), near_slot) == (peak.hex(), slot)
            ties += len(near) > 1
    assert ties > 0


def _decision_run(dynamics, rings, seed):
    """Admissions into a rotating state with an empty ring, then seeded
    power drifts each followed by ``rebalance`` or ``_mitigate``, and
    exits; the state after every step, and the screen counters."""
    rng = np.random.default_rng(seed)
    hp = _with_empty_rotating_ring(dynamics, rings, rng)
    capacity = sum(rings.capacity(ring) for ring in range(rings.n_rings))
    states = [hp.state_fingerprint()]
    for i in range(capacity - hp.n_threads):
        power, cpi = float(rng.uniform(0.5, 9.0)), float(rng.uniform(0.5, 3.0))
        hp.admit(ThreadInfo(f"a{i}", power, cpi))
        states.append(hp.state_fingerprint())
        if rng.random() < 0.3:
            hp.remove(str(rng.choice(sorted(hp.thread_ids()))))
            states.append(hp.state_fingerprint())
    for step in range(16):
        threads = sorted(hp.thread_ids())
        powers = [float(rng.uniform(0.3, 12.0)) for _ in threads]
        hp.update_powers(threads, powers)
        if step % 4 == 3:
            # T_DTM - Delta inside the margin band of the incumbent's peak
            hp.t_dtm_c = hp.peak_temperature() + DELTA_C + SCREEN_MARGIN_C / 2
        else:
            hp.t_dtm_c = T_DTM_C + float(rng.uniform(-8.0, 8.0))
        if step % 2:
            hp._mitigate()
        else:
            hp.rebalance()
        states.append(hp.state_fingerprint())
        if threads and rng.random() < 0.5:
            hp.remove(str(rng.choice(threads)))
            states.append(hp.state_fingerprint())
    counters = {
        name: getattr(hp, name)
        for name in (
            "screen_skipped",
            "screen_incumbent",
            "screen_slot",
            "screen_slot_exact",
        )
    }
    return states, counters


@pytest.mark.parametrize("platform", ["table1", "mesh4x4", "stack3d"])
def test_decisions_match_the_all_exact_reference(platforms, platform, monkeypatch):
    dynamics, rings = platforms[platform]
    settled = fallbacks = 0
    for seed in (3, 4):
        states, counters = _decision_run(dynamics, rings, seed)
        with monkeypatch.context() as patch:
            # an infinite margin leaves every choice to Algorithm 1
            patch.setattr(hotpotato, "SCREEN_MARGIN_C", math.inf)
            reference, exact = _decision_run(dynamics, rings, seed)
        assert exact["screen_skipped"] == exact["screen_incumbent"] == 0
        assert exact["screen_slot"] == 0 and exact["screen_slot_exact"] > 0
        assert len(set(states)) > 2
        assert states == reference
        settled += counters["screen_slot"]
        fallbacks += counters["screen_slot_exact"]
    # both the settled choice and the near-set fallback ran
    assert settled > 0 and fallbacks > 0
