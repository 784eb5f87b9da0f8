"""Engine fast-path benchmarks: the numbers behind ``BENCH_engine.json``.

Three measurements, written to ``BENCH_engine.json`` at the repository
root:

1. **Interval stepping** — dense ``ThermalDynamics.step`` (a steady-state
   solve against the factored ``B`` + ``O(N^2)`` matmul per interval) vs
   the eigenbasis-resident :class:`SpectralThermalState` (``O(N n)`` per
   interval) on the 64-core evaluation platform.  The fast path must be at least **3x** faster —
   the measured margin is far larger; the assertion is generous because
   shared CI boxes are noisy.
2. **Candidate evaluation** — HotPotato's (assignment, tau) candidates
   one-at-a-time vs stacked through ``peak_batch`` (plus the memoized
   re-scan cost, the steady-state case of a settled scheduler).
3. **Sweep wall time** — the fig4a driver at ``jobs=1`` vs ``jobs=4``
   (the pool).  On multi-core hosts jobs=4 shows the pool speedup; a
   1-CPU container's flat result reads as what it is via the recorded
   ``cpu_count``.  Results are asserted identical across both modes.
4. **Batched stepping** — one :class:`BatchedSpectralState` stepping all
   four fig4 cells per fused update vs the per-cell dense
   ``ThermalDynamics.step`` reference, gated at **5x** (measured margin
   is far larger); rows are asserted bit-identical to per-cell
   :class:`SpectralThermalState` stepping.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import PeakTemperatureCalculator
from repro.experiments import fig4a
from repro.thermal import SpectralThermalState
from repro.thermal.batched_state import BatchedSpectralState

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_engine.json"

_AMBIENT_C = 45.0
_TAU_S = 0.5e-3
N_STEPS = 400
N_CANDIDATES = 48
DELTA = 8
REPEATS = 3
SWEEP_BENCHMARKS = ("blackscholes", "canneal")
SWEEP_MAX_TIME_S = 0.3


def _best_of(fn, repeats=REPEATS):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _power_maps(n_cores, count=8):
    rng = np.random.default_rng(2024)
    return [rng.uniform(0.0, 9.0, size=n_cores) for _ in range(count)]


@pytest.fixture(scope="module")
def stepping(ctx64):
    """Dense vs eigenbasis stepping throughput on the 64-core model."""
    dynamics = ctx64.dynamics
    model = dynamics.model
    powers = _power_maps(model.n_cores)

    def dense():
        temps = model.ambient_vector(_AMBIENT_C)
        for i in range(N_STEPS):
            temps = dynamics.step(temps, powers[i % len(powers)], _AMBIENT_C, _TAU_S)
        return temps

    def spectral():
        state = SpectralThermalState(
            dynamics, _AMBIENT_C, model.ambient_vector(_AMBIENT_C)
        )
        for i in range(N_STEPS):
            state.step(powers[i % len(powers)], _TAU_S)
            state.core_temperatures()  # the engine reads every interval
        return state.node_temperatures()

    dense_s, dense_final = _best_of(dense)
    spectral_s, spectral_final = _best_of(spectral)
    # both paths must agree — a fast wrong answer is not a fast path
    np.testing.assert_allclose(spectral_final, dense_final, rtol=0, atol=1e-9)
    return {
        "n_steps": N_STEPS,
        "dense_wall_s": dense_s,
        "spectral_wall_s": spectral_s,
        "dense_steps_per_s": N_STEPS / dense_s,
        "spectral_steps_per_s": N_STEPS / spectral_s,
        "speedup": dense_s / spectral_s,
    }


@pytest.fixture(scope="module")
def candidates(ctx64):
    """Scalar vs batched vs memoized Algorithm-1 candidate evaluation."""
    dynamics = ctx64.dynamics
    rng = np.random.default_rng(7)
    seqs = [
        rng.uniform(0.0, 8.0, size=(DELTA, dynamics.model.n_cores))
        for _ in range(N_CANDIDATES)
    ]
    taus = [_TAU_S] * N_CANDIDATES

    def scalar():
        # the pre-batching per-candidate path: one einsum per candidate
        # (``peak()`` itself now delegates to ``peak_batch``, so the
        # un-batched formula is the honest baseline)
        calc = PeakTemperatureCalculator(dynamics, _AMBIENT_C)
        return np.array(
            [
                float(np.max(calc.boundary_temperatures(seq, _TAU_S)))
                for seq in seqs
            ]
        )

    def batched():
        calc = PeakTemperatureCalculator(dynamics, _AMBIENT_C)
        return calc.peak_batch(seqs, taus)

    scalar_s, scalar_vals = _best_of(scalar)
    batched_s, batched_vals = _best_of(batched)
    np.testing.assert_allclose(batched_vals, scalar_vals, rtol=0, atol=1e-9)

    warm = PeakTemperatureCalculator(dynamics, _AMBIENT_C)
    warm.peak_batch(seqs, taus)
    memo_s, memo_vals = _best_of(lambda: warm.peak_batch(seqs, taus))
    np.testing.assert_allclose(memo_vals, scalar_vals, rtol=0, atol=1e-9)
    return {
        "n_candidates": N_CANDIDATES,
        "delta": DELTA,
        "scalar_wall_s": scalar_s,
        "batched_wall_s": batched_s,
        "memoized_wall_s": memo_s,
        "scalar_evals_per_s": N_CANDIDATES / scalar_s,
        "batched_evals_per_s": N_CANDIDATES / batched_s,
        "memoized_evals_per_s": N_CANDIDATES / memo_s,
        "batched_speedup": scalar_s / batched_s,
        "memoized_speedup": scalar_s / memo_s,
    }


SWEEP_REPEATS = 2


@pytest.fixture(scope="module")
def sweep():
    """fig4a wall time: jobs=1 (best-of-``SWEEP_REPEATS``) vs jobs=4
    (one shot — its gate has a 2x margin), full sweeps."""
    serial_s, serial = _best_of(
        lambda: fig4a.run(
            benchmarks=SWEEP_BENCHMARKS, max_time_s=SWEEP_MAX_TIME_S
        ),
        repeats=SWEEP_REPEATS,
    )
    start = time.perf_counter()
    parallel = fig4a.run(
        benchmarks=SWEEP_BENCHMARKS, max_time_s=SWEEP_MAX_TIME_S, jobs=4
    )
    parallel_s = time.perf_counter() - start
    for name in SWEEP_BENCHMARKS:
        a, b = serial.comparisons[name], parallel.comparisons[name]
        assert a.hotpotato.metrics_snapshot == b.hotpotato.metrics_snapshot
        assert a.pcmig.makespan_s == b.pcmig.makespan_s
    return {
        "benchmarks": list(SWEEP_BENCHMARKS),
        "max_time_s": SWEEP_MAX_TIME_S,
        "jobs1_wall_s": serial_s,
        "jobs4_wall_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "cpu_count": os.cpu_count(),
    }


BATCH_CELLS = 4  # fig4's sweep shape: 2 benchmarks x 2 schedulers
BATCH_STEPS = 400


@pytest.fixture(scope="module")
def batched_sweep(ctx64):
    """Fused batched stepping vs the per-cell dense reference."""
    dynamics = ctx64.dynamics
    model = dynamics.model
    rng = np.random.default_rng(11)
    cell_powers = [
        [
            rng.uniform(0.0, 9.0, size=model.n_cores)
            for _ in range(8)
        ]
        for _ in range(BATCH_CELLS)
    ]

    def dense():
        finals = []
        for powers in cell_powers:
            temps = model.ambient_vector(_AMBIENT_C)
            for i in range(BATCH_STEPS):
                temps = dynamics.step(
                    temps, powers[i % len(powers)], _AMBIENT_C, _TAU_S
                )
            finals.append(temps)
        return np.stack(finals)

    def solo_spectral():
        states = [
            SpectralThermalState(
                dynamics, _AMBIENT_C, model.ambient_vector(_AMBIENT_C)
            )
            for _ in range(BATCH_CELLS)
        ]
        for i in range(BATCH_STEPS):
            for cell, state in enumerate(states):
                state.step(cell_powers[cell][i % 8], _TAU_S)
                state.core_temperatures()
        return np.stack([s.node_temperatures() for s in states])

    def fused():
        batch = BatchedSpectralState.from_states(
            [
                SpectralThermalState(
                    dynamics, _AMBIENT_C, model.ambient_vector(_AMBIENT_C)
                )
                for _ in range(BATCH_CELLS)
            ]
        )
        for i in range(BATCH_STEPS):
            batch.step(
                np.stack([cell_powers[c][i % 8] for c in range(BATCH_CELLS)]),
                _TAU_S,
            )
            for cell in range(BATCH_CELLS):
                batch.core_temperatures(cell)
        return np.stack(
            [batch.node_temperatures(c) for c in range(BATCH_CELLS)]
        )

    dense_s, dense_final = _best_of(dense)
    solo_s, solo_final = _best_of(solo_spectral)
    fused_s, fused_final = _best_of(fused)
    # fused rows are bit-identical to per-cell spectral stepping, and
    # both agree with the dense reference
    assert np.array_equal(fused_final, solo_final)
    np.testing.assert_allclose(fused_final, dense_final, rtol=0, atol=1e-9)
    total_steps = BATCH_CELLS * BATCH_STEPS
    return {
        "n_cells": BATCH_CELLS,
        "n_steps_per_cell": BATCH_STEPS,
        "dense_wall_s": dense_s,
        "solo_spectral_wall_s": solo_s,
        "fused_wall_s": fused_s,
        "dense_steps_per_s": total_steps / dense_s,
        "solo_spectral_steps_per_s": total_steps / solo_s,
        "fused_steps_per_s": total_steps / fused_s,
        "speedup_vs_dense": dense_s / fused_s,
        "speedup_vs_solo_spectral": solo_s / fused_s,
    }


def test_artifact_written(stepping, candidates, sweep, batched_sweep):
    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "engine_fast_path",
                "platform": "table1 (64 cores)",
                "repeats": REPEATS,
                "interval_stepping": stepping,
                "candidate_evaluation": candidates,
                "parallel_sweep": sweep,
                "batched_sweep": batched_sweep,
            },
            indent=2,
        )
        + "\n"
    )
    assert json.loads(ARTIFACT.read_text())["interval_stepping"]["speedup"] > 0


def test_eigenbasis_stepping_at_least_3x_dense(stepping):
    """The CI gate on the fast path: measured margins are ~20-30x, so 3x
    leaves room for the noisiest shared box while still catching any
    accidental fallback to the dense path."""
    assert stepping["speedup"] >= 3.0


def test_batched_candidates_not_slower_than_scalar(candidates):
    """Stacking must not cost throughput.  At this batch size both paths
    finish in ~2 ms (BLAS-bound) and the ratio sits near 1.0, so the gate
    is set below the noise floor of a shared box — it catches a real
    regression (a contraction falling off the BLAS path, the memo
    fingerprint turning quadratic), not timer jitter.  The memoized
    re-scan must always beat the cold batch."""
    assert candidates["batched_speedup"] >= 0.7
    assert candidates["memoized_speedup"] >= candidates["batched_speedup"]


def test_parallel_sweep_no_pathological_overhead(sweep):
    """jobs=4 must not regress wall time beyond pool-spawn overhead even
    on a single-CPU host (where no speedup is physically possible); on
    multi-core hosts the artifact records the actual speedup."""
    assert sweep["jobs4_wall_s"] < sweep["jobs1_wall_s"] * 2.0 + 2.0


def test_batched_stepping_at_least_5x_dense(batched_sweep):
    """The CI gate on the fused multi-cell fast path: stepping all fig4
    cells through one BatchedSpectralState must beat the per-cell dense
    reference by at least 5x per cell-step (measured margins are ~20-40x;
    the slack absorbs shared-box noise, not a regression to the dense or
    un-fused path)."""
    assert batched_sweep["speedup_vs_dense"] >= 5.0
