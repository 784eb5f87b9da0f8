"""Property-based tests on HotPotato's bookkeeping invariants.

Random admit/remove/update sequences must never corrupt the slot state:
every live thread sits in exactly one slot, capacities are respected, and
the emitted schedule covers exactly the live threads.  The schedule is
cached per (slot assignment, tau) and its placements per epoch mod
period; both caches must be indistinguishable from a fresh build.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.amd import AmdRings
from repro.arch.topology import Mesh
from repro.core.hotpotato import HotPotato, ThreadInfo
from repro.core.peak_temperature import PeakTemperatureCalculator
from repro.core.rotation import RotationGroup, RotationSchedule
from repro.thermal.floorplan import Floorplan
from repro.thermal.matex import ThermalDynamics
from repro.thermal.rc_model import MaterialStack, build_rc_model

_MODEL = build_rc_model(Floorplan(3, 3), MaterialStack())
_DYN = ThermalDynamics(_MODEL)
_CALC = PeakTemperatureCalculator(_DYN, 45.0)
_RINGS = AmdRings(Mesh(3, 3))


def _fresh() -> HotPotato:
    return HotPotato(
        _RINGS,
        _CALC,
        t_dtm_c=70.0,
        headroom_delta_c=1.0,
        idle_power_w=0.3,
        initial_tau_s=0.5e-3,
    )


#: an operation: (kind, thread-number, power)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["admit", "remove", "update"]),
        st.integers(0, 8),
        st.floats(0.5, 8.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


def _check_invariants(hp: HotPotato) -> None:
    # every live thread in exactly one slot
    seen = {}
    for ring_index, ring in enumerate(hp._slots):
        assert len(ring) == _RINGS.capacity(ring_index)
        for slot, thread in enumerate(ring):
            if thread is not None:
                assert thread not in seen
                seen[thread] = (ring_index, slot)
    assert set(seen) == set(hp.thread_ids())
    # locations agree with slots
    for thread, location in hp._location.items():
        assert seen[thread] == location
    # schedule exposes exactly the live threads, on disjoint cores
    schedule = hp.schedule()
    assert set(schedule.threads()) == set(hp.thread_ids())
    placement = schedule.placement_at(3)
    assert len(set(placement.values())) == len(placement)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_OPS)
def test_random_sequences_preserve_invariants(ops):
    hp = _fresh()
    live = set()
    for kind, number, power in ops:
        thread_id = f"t{number}"
        if kind == "admit" and thread_id not in live and len(live) < 9:
            hp.admit(ThreadInfo(thread_id, power, 1.0 + power / 10))
            live.add(thread_id)
        elif kind == "remove" and thread_id in live:
            hp.remove(thread_id)
            live.discard(thread_id)
        elif kind == "update" and thread_id in live:
            hp.update_power(thread_id, power)
        _check_invariants(hp)
    assert hp.n_threads == len(live)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    powers=st.lists(st.floats(0.5, 8.0, allow_nan=False), min_size=1, max_size=9)
)
def test_admitted_schedules_peak_is_finite_and_ordered(powers):
    """Whatever mix is admitted, the analytic peak is a sane temperature
    and refreshing never corrupts the state."""
    hp = _fresh()
    for index, power in enumerate(powers):
        hp.admit(ThreadInfo(f"t{index}", power, 1.0))
    peak = hp.peak_temperature()
    assert 45.0 <= peak < 200.0
    hp.refresh()
    _check_invariants(hp)


@settings(max_examples=15, deadline=None)
@given(
    powers=st.lists(
        st.floats(0.5, 3.0, allow_nan=False), min_size=2, max_size=6
    )
)
def test_remove_everything_restores_empty_state(powers):
    hp = _fresh()
    for index, power in enumerate(powers):
        hp.admit(ThreadInfo(f"t{index}", power, 1.0))
    for index in range(len(powers)):
        hp.remove(f"t{index}")
    assert hp.n_threads == 0
    assert all(s is None for ring in hp._slots for s in ring)
    # cold chip: rotation off
    assert hp.tau_s is None


# -- the cached schedule and its cached placements ----------------------------


def _assert_same_schedule(cached, fresh) -> None:
    assert cached.tau_s == fresh.tau_s
    assert cached.rotating == fresh.rotating
    assert cached.period_epochs == fresh.period_epochs
    assert [(g.cores, g.slots) for g in cached.groups] == [
        (g.cores, g.slots) for g in fresh.groups
    ]
    for epoch in range(2 * fresh.period_epochs + 1):
        assert cached.placement_at(epoch) == fresh.placement_at(epoch)


_SCHEDULE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["admit", "remove", "update", "refresh"]),
        st.integers(0, 8),
        st.floats(0.5, 8.0, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_SCHEDULE_OPS)
def test_cached_schedule_equals_fresh_build(ops):
    """After every admit, remove or refresh the cached schedule is the one
    a fresh build of the current slots would give, and candidate scoring's
    unvalidated power sequence is byte-identical to the validated
    schedule's."""
    hp = _fresh()
    live = set()
    for kind, number, power in ops:
        thread_id = f"t{number}"
        if kind == "admit" and thread_id not in live and len(live) < 9:
            hp.admit(ThreadInfo(thread_id, power, 1.0 + power / 10))
            live.add(thread_id)
        elif kind == "remove" and thread_id in live:
            hp.remove(thread_id)
            live.discard(thread_id)
        elif kind == "update" and thread_id in live:
            hp.update_power(thread_id, power)
        elif kind == "refresh":
            hp.refresh()
        fresh = hp._schedule_for(hp._slots, hp.tau_s)
        _assert_same_schedule(hp.schedule(), fresh)
        powers = {t: hp.thread_info(t).power_w for t in hp.thread_ids()}
        seq, tau = hp._power_seq_for(hp._slots, hp.tau_s)
        expected = fresh.power_sequence(_RINGS.mesh.n_cores, powers, 0.3)
        assert seq.tobytes() == expected.tobytes()
        assert tau == (fresh.tau_s if fresh.rotating else None)


def test_schedule_rebuilt_only_on_change():
    hp = _fresh()
    hp.admit(ThreadInfo("a", 3.0, 1.0))
    first = hp.schedule()
    hp.update_power("a", 2.5)
    assert hp.schedule() is first
    hp.admit(ThreadInfo("b", 3.0, 1.0))
    assert hp.schedule() is not first


_GROUPS = st.lists(st.integers(1, 5), min_size=1, max_size=4).flatmap(
    lambda sizes: st.tuples(
        st.just(sizes),
        st.lists(st.booleans(), min_size=sum(sizes), max_size=sum(sizes)),
        st.sampled_from([None, 0.5e-3]),
    )
)


def _schedule_of(sizes, occupied, tau_s) -> RotationSchedule:
    groups, core, slot = [], 0, 0
    for size in sizes:
        cores = list(range(core, core + size))
        slots = [
            f"t{slot + j}" if occupied[slot + j] else None for j in range(size)
        ]
        groups.append(RotationGroup(cores, slots))
        core += size
        slot += size
    return RotationSchedule(groups, tau_s)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=_GROUPS, epoch=st.integers(-50, 200))
def test_placement_periodic_and_copied(spec, epoch):
    schedule = _schedule_of(*spec)
    period = schedule.period_epochs
    first = schedule.placement_at(epoch)
    assert first == schedule.placement_at(epoch + period)
    # the cache serves epoch mod period; it must equal a direct evaluation
    direct = {}
    for group in schedule.groups:
        for core, thread in group.occupancy_at(
            epoch if schedule.rotating else 0
        ).items():
            direct[thread] = core
    assert first == direct
    # callers own the returned dict: mutating it leaves the cache intact
    first["intruder"] = 99
    first.clear()
    assert schedule.placement_at(epoch) == direct
