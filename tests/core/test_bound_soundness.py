"""Soundness of the boundary-only Algorithm-1 peak (property tests).

The scheduler evaluates ``T_peak`` at epoch boundaries only
(``peak_batch``, ``within_epoch_samples=0``) and adds the headroom
``Delta`` (``headroom_delta_c``, 1 degC) to absorb any peak that falls
inside an epoch.  On random AMD-ring schedules with tau from 0.1 to 2 ms
these tests pin, against the peak sampled 32 times per epoch:

- on every platform (4x4 mesh, 8x8 Table I, 3D stack) the boundary peak
  undershoots by less than ``Delta``, and the scalar ``peak()`` equals
  ``peak_batch`` bit for bit;
- on Table I the undershoot stays below 1e-9 degC.

It is not below 1e-9 degC everywhere: on the 4x4 mesh and the 3D stack a
core next to the rotating threads can peak mid-epoch.
:func:`test_known_within_epoch_undershoot` pins two such schedules.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import AmdRings, Mesh
from repro.config import ThermalConfig
from repro.core import PeakTemperatureCalculator
from repro.core.peak_temperature import rotation_peak_temperature
from repro.core.rotation import RotationGroup, RotationSchedule
from repro.stacked import Amd3dRings, Mesh3D, build_rc_model_3d, default_stacked_stack
from repro.thermal import ThermalDynamics

AMBIENT_C = 45.0
IDLE_W = 0.3
DELTA_C = ThermalConfig().headroom_delta_c

PROPERTY = settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def platforms(dynamics16, dynamics64, cfg16, cfg64):
    mesh3d = Mesh3D(4, 4, 2)
    return {
        "mesh4x4": (dynamics16, AmdRings(Mesh(cfg16.mesh_width, cfg16.mesh_height))),
        "table1": (dynamics64, AmdRings(Mesh(cfg64.mesh_width, cfg64.mesh_height))),
        "stacked": (
            ThermalDynamics(build_rc_model_3d(mesh3d, default_stacked_stack())),
            Amd3dRings(mesh3d),
        ),
    }


@st.composite
def ring_schedules(draw, rings):
    """Random thread placements on AMD rings, with per-thread powers."""
    groups, powers = [], {}
    for index in range(rings.n_rings):
        cores = list(rings.ring(index))
        if not draw(st.booleans()):
            continue
        slots = draw(st.lists(st.booleans(), min_size=len(cores), max_size=len(cores)))
        threads = []
        for slot, occupied in enumerate(slots):
            thread = f"r{index}s{slot}" if occupied else None
            if thread is not None:
                powers[thread] = draw(st.floats(0.5, 12.0))
            threads.append(thread)
        groups.append(RotationGroup(cores, threads))
    return groups, powers


def _undershoot(dynamics, groups, powers, tau_s):
    """Sampled peak minus boundary peak; also checks ``peak() == peak_batch``."""
    seq = RotationSchedule(groups, tau_s).power_sequence(
        dynamics.model.n_cores, powers, IDLE_W
    )
    batch = PeakTemperatureCalculator(dynamics, AMBIENT_C).peak_batch(
        [seq, seq[:1]], [tau_s, None]
    )[0]
    # a fresh calculator: the scalar path shares no memo with the batch
    assert PeakTemperatureCalculator(dynamics, AMBIENT_C).peak(seq, tau_s) == batch
    sampled = rotation_peak_temperature(
        dynamics, seq, tau_s, AMBIENT_C, within_epoch_samples=32
    )
    return sampled - batch


@pytest.mark.parametrize("platform", ["mesh4x4", "table1", "stacked"])
@PROPERTY
@given(data=st.data(), tau_s=st.floats(1e-4, 2e-3))
def test_boundary_peak_within_headroom(platforms, platform, data, tau_s):
    dynamics, rings = platforms[platform]
    groups, powers = data.draw(ring_schedules(rings))
    assert _undershoot(dynamics, groups, powers, tau_s) < DELTA_C


@PROPERTY
@given(data=st.data(), tau_s=st.floats(1e-4, 2e-3))
def test_boundary_peak_is_sound_on_table1(platforms, data, tau_s):
    dynamics, rings = platforms["table1"]
    groups, powers = data.draw(ring_schedules(rings))
    assert _undershoot(dynamics, groups, powers, tau_s) <= 1e-9


@pytest.mark.parametrize(
    "platform, ring, slots, power_w, tau_s",
    [
        # one 1 W thread on the 8-core ring: 5.1e-6 degC mid-epoch
        ("mesh4x4", 1, [None] * 7 + ["a"], 1.0, 0.001953125),
        # two 1 W threads on the 16-core ring spanning both layers: 1.5e-6 degC
        ("stacked", 1, ["a", "b"] + [None] * 14, 1.0, 2e-3),
    ],
)
def test_known_within_epoch_undershoot(platforms, platform, ring, slots, power_w, tau_s):
    dynamics, rings = platforms[platform]
    groups = [RotationGroup(list(rings.ring(ring)), slots)]
    powers = {thread: power_w for thread in slots if thread is not None}
    undershoot = _undershoot(dynamics, groups, powers, tau_s)
    assert 1e-9 < undershoot < 1e-4
