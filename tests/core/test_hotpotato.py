"""HotPotato heuristic (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.hotpotato import HotPotato, ThreadInfo


@pytest.fixture()
def hp16(rings16, calculator16):
    return HotPotato(
        rings16,
        calculator16,
        t_dtm_c=70.0,
        headroom_delta_c=1.0,
        idle_power_w=0.3,
        initial_tau_s=0.5e-3,
    )


@pytest.fixture()
def hp64(rings64, calculator64):
    return HotPotato(rings64, calculator64, t_dtm_c=70.0)


def hot(i, power=8.0, cpi=0.8):
    return ThreadInfo(f"hot{i}", power, cpi)


def cold(i, power=2.2, cpi=2.6):
    return ThreadInfo(f"cold{i}", power, cpi)


class TestAdmission:
    def test_first_thread_gets_lowest_ring(self, hp16):
        ring = hp16.admit(hot(0))
        assert ring == 0

    def test_duplicate_admission_rejected(self, hp16):
        hp16.admit(hot(0))
        with pytest.raises(ValueError):
            hp16.admit(hot(0))

    def test_chip_full_rejected(self, hp16):
        for i in range(16):
            hp16.admit(cold(i))
        with pytest.raises(ValueError):
            hp16.admit(cold(99))

    def test_sustainable_admission_respects_headroom(self, hp16):
        """Every accepted sustainable placement keeps T_peak + Delta below
        T_DTM (Algorithm 2 line 3)."""
        for i in range(3):
            hp16.admit(cold(i))
            assert hp16.peak_temperature() + 1.0 < 70.0

    def test_thermally_pressured_thread_lands_outward(self, hp16):
        """Hot threads spill toward higher-AMD rings as inner rings become
        thermally saturated."""
        rings = [hp16.admit(hot(i)) for i in range(8)]
        assert rings[0] == 0
        assert max(rings) > 0
        assert rings == sorted(rings)  # monotone spill outward

    def test_cold_threads_stack_inner(self, hp16):
        rings = [hp16.admit(cold(i)) for i in range(4)]
        assert rings == [0, 0, 0, 0]


class TestRemoval:
    def test_remove_unknown(self, hp16):
        with pytest.raises(KeyError):
            hp16.remove("ghost")

    def test_remove_frees_slot(self, hp16):
        hp16.admit(hot(0))
        hp16.remove("hot0")
        assert hp16.n_threads == 0
        assert len(hp16.free_slots(0)) == 4

    def test_exit_consolidates_inward(self, hp64):
        """After hot threads leave, memory-bound threads migrate to lower
        AMD rings (Algorithm 2 lines 16-22)."""
        for i in range(16):
            hp64.admit(hot(i))
        for i in range(8):
            hp64.admit(cold(i, power=3.0, cpi=2.6))
        outer_before = max(hp64.ring_of(f"cold{i}") for i in range(8))
        for i in range(16):
            hp64.remove(f"hot{i}")
        outer_after = max(hp64.ring_of(f"cold{i}") for i in range(8))
        assert outer_after <= outer_before
        assert hp64.peak_temperature() < 70.0

    def test_rotation_stops_when_statically_sustainable(self, hp16):
        """Cold workload: Algorithm 2 lines 23-27 stop rotation."""
        for i in range(4):
            hp16.admit(cold(i))
        hp16.rebalance()
        assert hp16.tau_s is None


class TestRotationControl:
    def test_initial_tau(self, hp16):
        assert hp16.tau_s == pytest.approx(0.5e-3)

    def test_hot_load_keeps_rotating(self, hp16):
        hp16.admit(hot(0))
        hp16.rebalance()
        # one 8 W thread pinned would hit 80 C; rotation must stay on
        assert hp16.tau_s is not None

    def test_schedule_safety_invariant(self, hp16):
        """Whatever mix is admitted, the analytic peak of the final schedule
        stays below T_DTM whenever that is achievable."""
        for i in range(2):
            hp16.admit(hot(i))
        for i in range(6):
            hp16.admit(cold(i))
        assert hp16.peak_temperature() < 70.0

    def test_overload_backstop(self, hp16):
        """An impossible load is still scheduled (DTM backstops); tau does
        not crash to the fastest rung without thermal benefit."""
        for i in range(16):
            hp16.admit(hot(i, power=8.0))
        assert hp16.n_threads == 16
        peaks_tau = hp16.tau_s
        assert peaks_tau is None or peaks_tau >= 0.125e-3


class TestStateQueries:
    def test_fingerprint_changes_on_admit(self, hp16):
        before = hp16.state_fingerprint()
        hp16.admit(cold(0))
        assert hp16.state_fingerprint() != before

    def test_schedule_contains_all_threads(self, hp16):
        for i in range(5):
            hp16.admit(cold(i))
        schedule = hp16.schedule()
        assert set(schedule.threads()) == {f"cold{i}" for i in range(5)}

    def test_update_power(self, hp16):
        hp16.admit(hot(0))
        hp16.update_power("hot0", 3.3)
        assert hp16.thread_info("hot0").power_w == pytest.approx(3.3)

    def test_refresh_reacts_to_cooling(self, hp16):
        hp16.admit(hot(0))
        assert hp16.tau_s is not None
        hp16.update_power("hot0", 1.0)  # thread turned out cold
        hp16.refresh()
        assert hp16.tau_s is None  # rotation stopped
