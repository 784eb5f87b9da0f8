"""Interval-level byte identity of the engine loop.

``bench/golden.json`` pins per-cell makespans, response times, migration
and DTM counts.  Those are coarse: a refactor of the per-thread loop can
change a power map in its last bit without moving any of them.  These
digests hash every interval of a run instead: the power map's bytes, the
exact ``dt``, the sorted placements and the core temperatures right after
the thermal step.  A change to any of them, in any interval, changes the
digest.

The interval digest does not see the end-of-run accounting: the
instructions-retired total, the per-core energy integral and the per-thread
time stacks.  Each cell pins those too, as the ``repr`` of the total and a
SHA-256 over the reprs of the other two.

The HotPotato digests were recorded with the straightforward per-thread
loop (a dict of power-sample deques summed by ``sum()`` per read, a thread
lookup by task scan, schedules rebuilt per decision); the PCMig,
HotPotato-DVFS and accounting pins with thread progress and power reads
still going thread by thread; the PCMig motivational pins before the engine
reused anything across repeated intervals.  They hold with BLAS pinned to
one thread, as ``tests/conftest.py`` does.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench.worker import run_pass
from repro.config import motivational, table1
from repro.experiments import fig4a
from repro.sched.hotpotato_dvfs import HotPotatoDvfsScheduler
from repro.sched.pcmig import PCMigScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import parsec_profile
from repro.workload.generator import TaskSpec, homogeneous_fill, materialize

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
FIG4A_PCMIG = {
    "blackscholes": "183bd9358ac5b1b43c987aed69eb722819b84ff4563bbfeeb91974b0c441da77",
    "canneal": "dd13c87da4b1120a7a21b8e35c09c006093b28ce008d4a8f056e0a4d03f06a5c",
}
#: a short overloaded run: the throttle engages, so the f_max-referred
#: estimates and the analytic peak read between decisions are both pinned
HOTPOTATO_DVFS = "d3aca2046a0f1702880af6a9765a46796e41c40f98efc73d3f1a03c4c63455ee"
#: PCMig on the 16-core chip, pre-heated so that DTM clamps, PCMig migrates
#: (threads pay migration debt) and tasks arrive, pass barriers and exit
#: mid-run: repeated intervals alternate with ones whose inputs changed
PCMIG_MOTIVATIONAL = (
    "9d73daab0b84a35d768e3a371eed6b5599ed2c1b6e1ee1a04afac1fb054383dd"
)

#: (repr of instructions_retired, SHA-256 over energy_per_core_j and the
#: time breakdown) per cell
ACCOUNTING = {
    "fig4b-light/pcmig": (
        "10240000000.00048",
        "1eb94adbb3ba7d1056299ad394095837ef62cec5d3dd9e05ad9f554ee7807dd9",
    ),
    "fig4b-light/hotpotato": (
        "10240000000.000885",
        "da01b90cf6f3ada753083bc810ecd9043a862eb254e077fc4bc0653862d912c4",
    ),
    "blackscholes/pcmig": (
        "25599999999.998825",
        "fc25fbf6db0f2fef0d5b7b117159f8da4c60c0b533e4b0ef9589adb9f1dc8b7c",
    ),
    "blackscholes/hotpotato": (
        "25600000000.000145",
        "ca8be3632b393cd408b478706976fd3f8bde7e73a7bfb9f6297d8be1f31047a6",
    ),
    "canneal/pcmig": (
        "22399999999.99949",
        "e75becbdd49152fc7eea6776b4a9b3fd5987ad0d0dc1ea8c68b138e219bd5b87",
    ),
    "canneal/hotpotato": (
        "22399999999.999557",
        "31632935b8faba203d13880e21a6464edf94206439f4e6c7bda313a2f934d06b",
    ),
    "hotpotato-dvfs": (
        "4160000000.000016",
        "e7ba5a6cecd9702dd29c2a9e09b82ef1eb3baae6b99193a0fb409ddaef2ddcb0",
    ),
    "pcmig-motivational": (
        "1152000000.0000007",
        "c05f030addd76ddd9603af023e7e6073d59883b336e1adcb365a62fdb4b966f3",
    ),
}


def _accounting(result):
    """The end-of-run accounting of one cell, in :data:`ACCOUNTING` form."""
    digest = hashlib.sha256()
    for energy in result.energy_per_core_j:
        digest.update(repr(energy).encode())
    for thread, stack in result.time_breakdown.items():
        digest.update(thread.encode())
        for value in (
            stack.compute_s,
            stack.stall_s,
            stack.migration_s,
            stack.wait_s,
            stack.queued_s,
        ):
            digest.update(repr(value).encode())
    return repr(result.instructions_retired), digest.hexdigest()


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
    result = run_pass("fig4b-light", 7)
    got = {sim.scheduler.name: digest.hexdigest() for sim, digest in digests}
    assert got == FIG4B_LIGHT
    (point,) = result.points
    for scheduler in ("pcmig", "hotpotato"):
        assert _accounting(getattr(point, scheduler)) == ACCOUNTING[
            f"fig4b-light/{scheduler}"
        ]


def _fig4a_digest(digests, benchmark, scheduler):
    cfg = table1()
    model = SimContext(cfg).thermal_model
    result = fig4a._simulate_cell(
        benchmark, scheduler, cfg, model, seed=42, work_scale=2.5, max_time_s=5.0
    )
    assert _accounting(result) == ACCOUNTING[f"{benchmark}/{scheduler}"]
    ((_, digest),) = digests
    return digest.hexdigest()


def test_fig4a_cell_intervals_byte_identical(digests):
    got = _fig4a_digest(digests, "blackscholes", "hotpotato")
    assert got == FIG4A_BLACKSCHOLES_HOTPOTATO


def test_fig4a_canneal_cell_intervals_byte_identical(digests):
    assert _fig4a_digest(digests, "canneal", "hotpotato") == FIG4A_CANNEAL_HOTPOTATO


@pytest.mark.parametrize("workload", sorted(FIG4A_PCMIG))
def test_fig4a_pcmig_cell_intervals_byte_identical(digests, workload):
    assert _fig4a_digest(digests, workload, "pcmig") == FIG4A_PCMIG[workload]


def test_hotpotato_dvfs_intervals_byte_identical(digests):
    cfg = motivational()
    tasks = materialize(homogeneous_fill("swaptions", 16, seed=2))
    sim = IntervalSimulator(cfg, HotPotatoDvfsScheduler(), tasks, ctx=SimContext(cfg))
    result = sim.run(max_time_s=0.1)
    ((_, digest),) = digests
    assert digest.hexdigest() == HOTPOTATO_DVFS
    assert _accounting(result) == ACCOUNTING["hotpotato-dvfs"]


def test_pcmig_motivational_intervals_byte_identical(digests):
    cfg = motivational()
    arrivals = [
        ("blackscholes", 4, 0.0),
        ("swaptions", 4, 0.0),
        ("bodytrack", 2, 0.002),
        ("x264", 4, 0.004),
        ("canneal", 2, 0.010),
        ("streamcluster", 4, 0.030),
    ]
    tasks = materialize(
        [
            TaskSpec(parsec_profile(name), n, at, seed=seed, work_scale=0.3)
            for seed, (name, n, at) in enumerate(arrivals)
        ]
    )
    sim = IntervalSimulator(
        cfg,
        PCMigScheduler(),
        tasks,
        ctx=SimContext(cfg),
        warm_start_uniform_power_w=12.0,
    )
    result = sim.run(max_time_s=0.08)
    assert result.dtm_triggers > 0 and result.migration_count > 0
    assert len(result.tasks) == len(arrivals)
    ((_, digest),) = digests
    assert digest.hexdigest() == PCMIG_MOTIVATIONAL
    assert _accounting(result) == ACCOUNTING["pcmig-motivational"]


def _queued_arrival_accounting():
    """PCMig on the 16-core chip, full when a 4-thread task arrives: the
    task waits in the queue, so its threads' time stacks enter the result
    while queued."""
    cfg = motivational()
    arrivals = [
        ("blackscholes", 0.0),
        ("swaptions", 0.0),
        ("bodytrack", 0.0),
        ("x264", 0.0),
        ("canneal", 0.002),
    ]
    tasks = materialize(
        [
            TaskSpec(parsec_profile(name), 4, at, seed=seed, work_scale=0.3)
            for seed, (name, at) in enumerate(arrivals)
        ]
    )
    sim = IntervalSimulator(cfg, PCMigScheduler(), tasks, ctx=SimContext(cfg))
    return _accounting(sim.run(max_time_s=0.01))


def test_queued_arrival_accounting_ignores_hash_seed():
    """String hashing is salted per process; the order waiting threads
    enter the time breakdown must not follow it."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    script = (
        "from tests.sim.test_engine_digest import _queued_arrival_accounting;"
        "print(_queued_arrival_accounting())"
    )
    outputs = set()
    for seed in ("1", "2", "3"):
        env["PYTHONHASHSEED"] = seed
        completed = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(completed.stdout)
    assert len(outputs) == 1
