"""Byte-identity of BatchedSpectralState against S independent states.

The batched sweep engine's whole contract is that fusing the thermal hot
loop changes *nothing* — not "agrees to 1e-9" but bit-equal coefficient
and temperature arrays.  Every comparison here is ``tobytes()`` equality.
"""

import numpy as np
import pytest

from repro.thermal import (
    BatchedSpectralState,
    SpectralThermalState,
    ThermalDynamics,
    calibrated_model,
)

S = 5  # batch width used throughout
TAU_LADDER = (0.004, 0.002, 0.001, 0.0005)


@pytest.fixture(scope="module")
def dynamics(dynamics16):
    return dynamics16


def _mixed_trace(dynamics, rng, n_steps):
    """Per-cell (power, tau) schedules exercising the full tau ladder."""
    n = dynamics.model.n_cores
    powers = rng.uniform(0.2, 9.0, size=(n_steps, S, n))
    taus = np.array(
        [[TAU_LADDER[rng.integers(len(TAU_LADDER))] for _ in range(S)]
         for _ in range(n_steps)]
    )
    return powers, taus


def _scalar_states(dynamics, ambients, starts):
    return [
        SpectralThermalState(dynamics, ambients[i], starts[i])
        for i in range(S)
    ]


@pytest.fixture()
def setup(dynamics):
    rng = np.random.default_rng(1234)
    n_nodes = dynamics.model.n_nodes
    ambients = np.array([45.0, 45.0, 42.0, 45.0, 48.0])
    starts = 50.0 + rng.uniform(-3.0, 9.0, size=(S, n_nodes))
    return rng, ambients, starts


class TestBitwiseEquivalence:
    def test_construction_matches_scalar_projection(self, dynamics, setup):
        _, ambients, starts = setup
        batch = BatchedSpectralState(dynamics, ambients, starts)
        for i, state in enumerate(_scalar_states(dynamics, ambients, starts)):
            assert (
                batch.cell_coefficients(i).tobytes()
                == state.coefficients.tobytes()
            )

    def test_mixed_tau_trace_bitwise(self, dynamics, setup):
        rng, ambients, starts = setup
        batch = BatchedSpectralState(dynamics, ambients, starts)
        states = _scalar_states(dynamics, ambients, starts)
        powers, taus = _mixed_trace(dynamics, rng, n_steps=40)
        for k in range(powers.shape[0]):
            batch.step(powers[k], taus[k])
            for i, state in enumerate(states):
                state.step(powers[k, i], taus[k, i])
        for i, state in enumerate(states):
            assert (
                batch.cell_coefficients(i).tobytes()
                == state.coefficients.tobytes()
            )
            assert (
                batch.core_temperatures(i).tobytes()
                == state.core_temperatures().tobytes()
            )
            assert (
                batch.node_temperatures(i).tobytes()
                == state.node_temperatures().tobytes()
            )

    def test_uniform_tau_single_fused_update(self, dynamics, setup):
        rng, ambients, starts = setup
        batch = BatchedSpectralState(dynamics, ambients, starts)
        states = _scalar_states(dynamics, ambients, starts)
        for _ in range(10):
            power = rng.uniform(0.2, 9.0, size=(S, dynamics.model.n_cores))
            batch.step(power, 0.002)
            for i, state in enumerate(states):
                state.step(power[i], 0.002)
        assert batch.fused_updates == 10  # one group per step
        assert batch.rows_stepped == 10 * S
        for i, state in enumerate(states):
            assert (
                batch.cell_coefficients(i).tobytes()
                == state.coefficients.tobytes()
            )

    def test_subset_stepping_bitwise(self, dynamics, setup):
        rng, ambients, starts = setup
        batch = BatchedSpectralState(dynamics, ambients, starts)
        states = _scalar_states(dynamics, ambients, starts)
        n = dynamics.model.n_cores
        for k in range(20):
            cells = sorted(
                rng.choice(S, size=rng.integers(1, S + 1), replace=False)
            )
            power = rng.uniform(0.2, 9.0, size=(len(cells), n))
            tau = TAU_LADDER[k % len(TAU_LADDER)]
            batch.step(power, tau, cells=cells)
            for pos, i in enumerate(cells):
                states[i].step(power[pos], tau)
        for i, state in enumerate(states):
            assert (
                batch.cell_coefficients(i).tobytes()
                == state.coefficients.tobytes()
            )
            assert int(batch.steps[i]) == state.steps

    def test_from_states_adopts_bitwise_and_leaves_donors(self, dynamics, setup):
        rng, ambients, starts = setup
        states = _scalar_states(dynamics, ambients, starts)
        for state in states:
            state.step(
                rng.uniform(0.2, 9.0, size=dynamics.model.n_cores), 0.001
            )
        snapshot = [s.coefficients.copy() for s in states]
        batch = BatchedSpectralState.from_states(states)
        for i, state in enumerate(states):
            assert (
                batch.cell_coefficients(i).tobytes() == snapshot[i].tobytes()
            )
            assert int(batch.steps[i]) == state.steps
        # stepping the batch must not disturb the donor states
        batch.step(
            rng.uniform(0.2, 9.0, size=(S, dynamics.model.n_cores)), 0.002
        )
        for i, state in enumerate(states):
            assert state.coefficients.tobytes() == snapshot[i].tobytes()


class TestDetach:
    def test_detach_continues_bitwise(self, dynamics, setup):
        rng, ambients, starts = setup
        batch = BatchedSpectralState(dynamics, ambients, starts)
        states = _scalar_states(dynamics, ambients, starts)
        powers, taus = _mixed_trace(dynamics, rng, n_steps=8)
        for k in range(8):
            batch.step(powers[k], taus[k])
            for i, state in enumerate(states):
                state.step(powers[k, i], taus[k, i])
        detached = batch.detach(2)
        assert batch.n_cells == S - 1
        assert batch.detached == 1
        assert detached.coefficients.tobytes() == states[2].coefficients.tobytes()
        assert detached.steps == states[2].steps
        assert detached.ambient_c == ambients[2]
        # both the detached scalar state and the compacted batch keep
        # stepping bitwise against the reference states
        remaining = [0, 1, 3, 4]
        for k in range(8):
            power = rng.uniform(0.2, 9.0, size=(S, dynamics.model.n_cores))
            detached.step(power[2], 0.001)
            states[2].step(power[2], 0.001)
            batch.step(power[remaining], 0.002)
            for i, cell in enumerate(remaining):
                states[cell].step(power[cell], 0.002)
        assert detached.coefficients.tobytes() == states[2].coefficients.tobytes()
        for pos, cell in enumerate(remaining):
            assert (
                batch.cell_coefficients(pos).tobytes()
                == states[cell].coefficients.tobytes()
            )

    def test_stats_counters(self, dynamics, setup):
        _, ambients, starts = setup
        batch = BatchedSpectralState(dynamics, ambients, starts)
        batch.step(
            np.full((S, dynamics.model.n_cores), 2.0),
            np.array([0.001, 0.002, 0.001, 0.002, 0.001]),
        )
        stats = batch.stats()
        assert stats["cells"] == S
        assert stats["fused_updates"] == 2  # two tau groups
        assert stats["rows_stepped"] == S
        batch.detach(0)
        assert batch.stats()["detached"] == 1


class TestFrozenViews:
    def test_batched_views_frozen(self, dynamics, setup):
        _, ambients, starts = setup
        batch = BatchedSpectralState(dynamics, ambients, starts)
        for arr in (
            batch.coefficients,
            batch.cell_coefficients(0),
            batch.core_temperatures(0),
            batch.node_temperatures(0),
        ):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_scalar_coefficients_frozen_view(self, dynamics, setup):
        _, ambients, starts = setup
        state = SpectralThermalState(dynamics, ambients[0], starts[0])
        coeffs = state.coefficients
        with pytest.raises(ValueError):
            coeffs[0] = 0.0
        # a view, not a copy: two reads share the same base buffer
        assert state.coefficients.base is not None


class TestValidation:
    def test_shape_errors(self, dynamics, setup):
        _, ambients, starts = setup
        with pytest.raises(ValueError):
            BatchedSpectralState(dynamics, ambients, starts[:, :-1])
        with pytest.raises(ValueError):
            BatchedSpectralState(dynamics, ambients[:-1], starts)
        batch = BatchedSpectralState(dynamics, ambients, starts)
        with pytest.raises(ValueError):
            batch.step(np.zeros((S, dynamics.model.n_cores + 1)), 0.001)
        with pytest.raises(ValueError):
            batch.step(
                np.zeros((S, dynamics.model.n_cores)), np.zeros(S - 1)
            )

    def test_from_states_rejects_mixed_dynamics(self, dynamics, setup):
        from repro import config

        _, ambients, starts = setup
        other = ThermalDynamics(calibrated_model(config.motivational()))
        states = [
            SpectralThermalState(dynamics, ambients[0], starts[0]),
            SpectralThermalState(other, ambients[1], starts[1]),
        ]
        with pytest.raises(ValueError):
            BatchedSpectralState.from_states(states)
        with pytest.raises(ValueError):
            BatchedSpectralState.from_states([])

    def test_steady_coeffs_batch_exact_rows_match_gemv(self, dynamics):
        rng = np.random.default_rng(7)
        stacked = rng.uniform(0.0, 10.0, size=(9, dynamics.model.n_cores))
        batch = dynamics.steady_coeffs_batch(stacked)
        for i in range(stacked.shape[0]):
            assert (
                batch[i].tobytes()
                == dynamics.steady_coeffs(stacked[i]).tobytes()
            )
