"""Rotation schedule semantics."""

import math

import numpy as np
import pytest

from repro.core.rotation import (
    RotationGroup,
    RotationSchedule,
    power_sequence,
    ring_tracks,
)


@pytest.fixture()
def group():
    return RotationGroup(cores=[5, 6, 9, 10], slots=["a", "b", None, None])


class TestRotationGroup:
    def test_size_and_threads(self, group):
        assert group.size == 4
        assert group.threads == ("a", "b")

    def test_rotation_advances(self, group):
        assert group.core_of_slot(0, epoch=0) == 5
        assert group.core_of_slot(0, epoch=1) == 6
        assert group.core_of_slot(0, epoch=4) == 5  # full period

    def test_occupancy(self, group):
        occ0 = group.occupancy_at(0)
        assert occ0 == {5: "a", 6: "b"}
        occ1 = group.occupancy_at(1)
        assert occ1 == {6: "a", 9: "b"}

    def test_every_thread_visits_every_core(self, group):
        visited = {group.core_of_slot(0, e) for e in range(group.size)}
        assert visited == {5, 6, 9, 10}

    def test_validation(self):
        with pytest.raises(ValueError):
            RotationGroup([], [])
        with pytest.raises(ValueError):
            RotationGroup([1, 2], ["a"])
        with pytest.raises(ValueError):
            RotationGroup([1, 1], ["a", None])
        with pytest.raises(ValueError):
            RotationGroup([1, 2], ["a", "a"])


class TestRotationSchedule:
    def make_schedule(self, tau=0.5e-3):
        g0 = RotationGroup([5, 6, 9, 10], ["a", "b", None, None])
        g1 = RotationGroup([1, 2, 4, 7, 8, 11, 13, 14], ["c"] + [None] * 7)
        return RotationSchedule([g0, g1], tau)

    def test_period_is_lcm(self):
        sched = self.make_schedule()
        assert sched.period_epochs == 8  # lcm(4, 8)

    def test_static_schedule(self):
        sched = self.make_schedule(tau=None)
        assert not sched.rotating
        assert sched.period_epochs == 1
        assert sched.placement_at(0) == sched.placement_at(5)

    def test_placements_disjoint(self):
        sched = self.make_schedule()
        for epoch in range(8):
            cores = list(sched.placement_at(epoch).values())
            assert len(set(cores)) == len(cores)

    def test_threads_listed(self):
        assert set(self.make_schedule().threads()) == {"a", "b", "c"}

    def test_power_sequence(self):
        sched = self.make_schedule()
        seq = sched.power_sequence(
            16, {"a": 8.0, "b": 4.0, "c": 2.0}, idle_power_w=0.3
        )
        assert seq.shape == (8, 16)
        # total power constant across epochs
        totals = seq.sum(axis=1)
        assert np.allclose(totals, totals[0])
        # each epoch has exactly one core at 8 W
        assert np.all(np.sum(seq == 8.0, axis=1) == 1)
        # core 0 is outside every group: always idle
        assert np.all(seq[:, 0] == 0.3)

    def test_migrations_between_epochs(self):
        sched = self.make_schedule()
        moves = sched.migrations_between(0, 1)
        moved = {m[0] for m in moves}
        assert moved == {"a", "b", "c"}
        for thread, src, dst in moves:
            assert src != dst

    def test_no_migration_when_static(self):
        sched = self.make_schedule(tau=None)
        assert sched.migrations_between(0, 1) == []

    def test_overlap_validation(self):
        g0 = RotationGroup([1, 2], ["a", None])
        g_core_clash = RotationGroup([2, 3], ["b", None])
        with pytest.raises(ValueError):
            RotationSchedule([g0, g_core_clash], 1e-3)
        g_thread_clash = RotationGroup([3, 4], ["a", None])
        with pytest.raises(ValueError):
            RotationSchedule([g0, g_thread_clash], 1e-3)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            RotationSchedule([], 0.0)

    def test_single_core_group_never_rotates(self):
        sched = RotationSchedule([RotationGroup([3], ["a"])], 1e-3)
        assert not sched.rotating
        assert sched.placement_at(7) == {"a": 3}


def _reference_power_sequence(
    ring_cores, ring_slots, rotating, n_cores, powers, idle_power_w
):
    """Plain scalar loop: every occupied slot, every epoch, one write."""
    occupied = [
        len(cores)
        for cores, slots in zip(ring_cores, ring_slots)
        if any(thread is not None for thread in slots)
    ]
    period = math.lcm(*occupied) if rotating and occupied else 1
    seq = np.full((period, n_cores), float(idle_power_w))
    for epoch in range(period):
        for cores, slots in zip(ring_cores, ring_slots):
            for slot, thread in enumerate(slots):
                if thread is not None:
                    core = cores[(slot + epoch) % len(cores)] if rotating else cores[slot]
                    seq[epoch, core] = float(powers[thread])
    return seq


def _layouts():
    from repro.arch import AmdRings, Mesh
    from repro.stacked import Amd3dRings, Mesh3D

    return {
        "table1": AmdRings(Mesh(8, 8)),
        "mesh4x4": AmdRings(Mesh(4, 4)),
        "stack3d": Amd3dRings(Mesh3D(4, 4, 2)),
    }


def _occupancy(rings, rng, fill, empty_rings=()):
    """Random slot lists (threads named by position) and their powers."""
    slots, powers = [], {}
    for i in range(rings.n_rings):
        ring = []
        for j in range(rings.capacity(i)):
            if i not in empty_rings and rng.random() < fill:
                thread = f"t{i}.{j}"
                powers[thread] = float(rng.uniform(0.5, 9.0))
                ring.append(thread)
            else:
                ring.append(None)
        slots.append(ring)
    return slots, powers


class TestTrackTables:
    """``power_sequence`` gathers from a per-layout track table; it must
    write exactly the floats a scalar loop writes, in every case."""

    @pytest.mark.parametrize("layout", ["table1", "mesh4x4", "stack3d"])
    @pytest.mark.parametrize("rotating", [True, False], ids=["rotating", "static"])
    @pytest.mark.parametrize(
        "fill, empty",
        [(0.5, ()), (1.0, ()), (0.0, ()), (0.7, (0, 2))],
        ids=["half", "full", "empty", "empty-rings"],
    )
    def test_byte_equal_to_scalar_loop(self, layout, rotating, fill, empty):
        rings = _layouts()[layout]
        ring_cores = [rings.ring(i) for i in range(rings.n_rings)]
        rng = np.random.default_rng(7)
        for _ in range(5):
            slots, powers = _occupancy(rings, rng, fill, empty)
            args = (ring_cores, slots, rotating, rings.mesh.n_cores, powers, 0.3)
            got = power_sequence(*args)
            want = _reference_power_sequence(*args)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_period_is_lcm_of_occupied_mixed_ring_sizes(self):
        rings = _layouts()["table1"]
        ring_cores = [rings.ring(i) for i in range(rings.n_rings)]
        sizes = [len(c) for c in ring_cores]
        # one thread in a 4-core, an 8-core and the 12-core ring
        picks = [sizes.index(4), sizes.index(8), sizes.index(12)]
        slots = [[None] * size for size in sizes]
        powers = {}
        for ring in picks:
            slots[ring][1] = f"r{ring}"
            powers[f"r{ring}"] = 5.0 + ring
        args = (ring_cores, slots, True, 64, powers, 0.3)
        seq = power_sequence(*args)
        assert seq.shape == (24, 64)
        assert seq.tobytes() == _reference_power_sequence(*args).tobytes()
        slots[picks[2]][1] = None  # drop the 12-core ring: lcm(4, 8)
        assert power_sequence(*args).shape == (8, 64)

    def test_tables_are_small_shared_and_inverse(self):
        for rings in _layouts().values():
            layout = tuple(tuple(rings.ring(i)) for i in range(rings.n_rings))
            n_cores = rings.mesh.n_cores
            track, occupant, offsets = ring_tracks(layout, n_cores)
            assert track is ring_tracks(layout, n_cores)[0]
            assert not track.flags.writeable and not occupant.flags.writeable
            assert track.nbytes + occupant.nbytes < 100_000
            assert len(offsets) == rings.n_rings
            for flat_slot, row in enumerate(track):
                assert np.all(occupant[np.arange(row.size), row] == flat_slot)

    @pytest.mark.parametrize("layout", ["table1", "mesh4x4", "stack3d"])
    @pytest.mark.parametrize("tau", [0.5e-3, None], ids=["rotating", "static"])
    def test_slot_scan_candidates_equal_full_builds(self, layout, tau):
        from repro.core.hotpotato import HotPotato, ThreadInfo

        class Recorder:
            """Stands in for the calculator: records each candidate list."""

            def __init__(self):
                self.calls = []

            def peak_batch(self, seqs, taus):
                self.calls.append(([np.array(s) for s in seqs], list(taus)))
                return np.zeros(len(seqs))

            def ring_responses(self, ring_cores, tau_s):
                return np.zeros((sum(map(len, ring_cores)), 1))

        rings = _layouts()[layout]
        recorder = Recorder()
        hp = HotPotato(rings, recorder, t_dtm_c=70.0, initial_tau_s=0.5e-3)
        hp._tau_index = hp._tau_ladder.index(tau)
        rng = np.random.default_rng(3)
        # half-fill every ring directly so each scan has several free slots
        for ring in range(rings.n_rings):
            for slot in range(rings.capacity(ring)):
                if rng.random() < 0.5:
                    thread = f"t{ring}.{slot}"
                    hp._enroll(ThreadInfo(thread, rng.uniform(1, 9), 1.0))
                    hp._place(thread, ring, slot)
        new = ThreadInfo("new", 7.25, 1.0)
        hp._enroll(new)
        for ring in range(rings.n_rings):
            free = hp.free_slots(ring)
            if not free:
                continue
            recorder.calls.clear()
            hp._best_slot_in_ring(ring, new.thread_id, free)
            ((seqs, taus),) = recorder.calls
            assert len(seqs) == len(free)
            for slot, seq, effective_tau in zip(free, seqs, taus):
                trial = hp._copy_slots()
                trial[ring][slot] = new.thread_id
                want, want_tau = hp._power_seq_for(trial, hp.tau_s)
                assert effective_tau == want_tau
                assert seq.shape == want.shape
                assert seq.tobytes() == want.tobytes()
