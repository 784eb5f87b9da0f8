"""Interval-level byte identity of the engine loop.

``bench/golden.json`` pins per-cell makespans, response times, migration
and DTM counts.  Those are coarse: a refactor of the per-thread loop can
change a power map in its last bit without moving any of them.  These
digests hash every interval of a run instead: the power map's bytes, the
exact ``dt``, the sorted placements and the core temperatures right after
the thermal step.  A change to any of them, in any interval, changes the
digest.

The pinned values were recorded with the straightforward per-thread loop
(a dict of power-sample deques summed by ``sum()`` per read, a thread
lookup by task scan, schedules rebuilt per decision).  They hold with
BLAS pinned to one thread, as ``tests/conftest.py`` does.
"""

import hashlib

import pytest

from bench.worker import run_pass
from repro.config import table1
from repro.experiments import fig4a
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator

#: SHA-256 over every interval of each cell, in simulation order.
FIG4B_LIGHT = {
    "pcmig": "2c436d8f866aaaf8ecd56adda56c6fcfa27d417dd677515597f9d11917cc4040",
    "hotpotato": "9a07c5934abbf1aaf929cd8c877be2c2012351174933c7ef99a71cffcc9a1bcc",
}
FIG4A_BLACKSCHOLES_HOTPOTATO = (
    "3bec59977f7a36a992d9f89b64f972ea7398dddfa54b7edfe49fb80d2d22035f"
)
#: canneal is the coldest benchmark and blackscholes the hottest, so the
#: two cells pin both ends of HotPotato's decisions; recorded before the
#: migration and admission scans were screened
FIG4A_CANNEAL_HOTPOTATO = (
    "af5a9a47fd15a9276a6ceee5d340379a6b3ec11c56160730e72df9cb0ca4c40d"
)


@pytest.fixture()
def digests(monkeypatch):
    """Hash each simulator's intervals as ``step_thermal`` runs them."""
    cells = []
    by_sim = {}
    original = IntervalSimulator.step_thermal

    def hashed_step(sim, plan):
        original(sim, plan)
        if id(sim) not in by_sim:
            by_sim[id(sim)] = hashlib.sha256()
            cells.append((sim, by_sim[id(sim)]))
        digest = by_sim[id(sim)]
        placements = plan.decision.placements if plan.decision is not None else {}
        digest.update(plan.power_w.tobytes())
        digest.update(repr(plan.dt_s).encode())
        digest.update(repr(sorted(placements.items())).encode())
        digest.update(sim.thermal_state.core_temperatures().tobytes())

    monkeypatch.setattr(IntervalSimulator, "step_thermal", hashed_step)
    return cells


def test_fig4b_light_intervals_byte_identical(digests):
    run_pass("fig4b-light", 7)
    got = {sim.scheduler.name: digest.hexdigest() for sim, digest in digests}
    assert got == FIG4B_LIGHT


def _fig4a_hotpotato_digest(digests, benchmark):
    cfg = table1()
    model = SimContext(cfg).thermal_model
    fig4a._simulate_cell(
        benchmark, "hotpotato", cfg, model, seed=42, work_scale=2.5, max_time_s=5.0
    )
    ((_, digest),) = digests
    return digest.hexdigest()


def test_fig4a_cell_intervals_byte_identical(digests):
    got = _fig4a_hotpotato_digest(digests, "blackscholes")
    assert got == FIG4A_BLACKSCHOLES_HOTPOTATO


def test_fig4a_canneal_cell_intervals_byte_identical(digests):
    assert _fig4a_hotpotato_digest(digests, "canneal") == FIG4A_CANNEAL_HOTPOTATO
