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
"""

import numpy as np
import pytest

from repro.arch import AmdRings, Mesh
from repro.core import PeakTemperatureCalculator
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
                hp._threads[thread] = info
                hp._place(thread, ring, slot)
    return hp


def _check_ring(hp, base, effective_tau, thread, ring, free, thresholds):
    """Screen against Algorithm 1 for one (thread, target ring) pair."""
    screened = hp._screened_peak(base, effective_tau, thread, ring, free)
    placed = thread in hp._location
    if placed:
        home = hp._location[thread]
        hp._unplace(thread)
    exact, _ = hp._best_slot_in_ring(ring, thread, free)
    proven = max(hp.screen_error_bound(thread, ring, slot) for slot in free)
    if placed:
        hp._place(thread, *home)
    assert proven <= SCREEN_MARGIN_C
    assert abs(screened - exact) < SCREEN_MARGIN_C / 100
    bound = screened - SCREEN_MARGIN_C
    assert bound <= exact
    for threshold in thresholds:
        if exact < threshold:  # accepted by the exact scan ...
            assert bound < threshold  # ... so never skipped by the screen


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
            hp._threads["new"] = ThreadInfo("new", float(rng.uniform(0.5, 9.0)), 1.0)
            for ring in range(rings.n_rings):
                if free[ring]:
                    _check_ring(
                        hp, base, effective_tau, "new", ring, free[ring], thresholds
                    )
            del hp._threads["new"]
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


def _full_ladder_choice(hp):
    """The rung ``_select_tau`` picks when it scores the whole ladder."""
    seqs, taus = [], []
    for tau in hp._tau_ladder:
        seq, effective_tau = hp._power_seq_for(hp._slots, tau)
        seqs.append(seq)
        taus.append(effective_tau)
    peaks = hp.calculator.peak_batch(seqs, taus)
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
