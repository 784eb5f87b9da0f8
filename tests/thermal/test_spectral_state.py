"""Eigenbasis-resident stepping vs the dense reference path.

The interval engine holds its thermal state as eigen-coefficients
(:class:`repro.thermal.SpectralThermalState`); these tests pin the fast
path to the dense ``ThermalDynamics.step`` to ``<= 1e-9`` degC over long
mixed-power traces, and check the lazy-projection contract.
"""

import numpy as np
import pytest

from repro.thermal import SpectralThermalState

_AMBIENT_C = 45.0


def _mixed_trace(dynamics, rng, n_steps):
    """A 500-interval-style trace: varied powers and step sizes."""
    n = dynamics.model.n_cores
    taus = (0.25e-3, 0.5e-3, 1e-3, 2e-3)
    for i in range(n_steps):
        power = rng.uniform(0.0, 9.0, size=n)
        if i % 7 == 0:
            power[:] = 0.3  # idle epochs
        if i % 11 == 0:
            power[rng.integers(n)] = 12.0  # a hotspot burst
        yield power, taus[i % len(taus)]


class TestEquivalence:
    def test_matches_dense_path_over_500_mixed_intervals(self, dynamics64, rng):
        model = dynamics64.model
        dense = model.ambient_vector(_AMBIENT_C)
        state = SpectralThermalState(dynamics64, _AMBIENT_C, dense)
        worst = 0.0
        for power, tau in _mixed_trace(dynamics64, rng, 500):
            dense = dynamics64.step(dense, power, _AMBIENT_C, tau)
            state.step(power, tau)
            worst = max(
                worst,
                float(np.max(np.abs(state.node_temperatures() - dense))),
            )
        assert worst <= 1e-9

    def test_core_projection_matches_node_projection(self, dynamics16):
        model = dynamics16.model
        state = SpectralThermalState(
            dynamics16, _AMBIENT_C, model.ambient_vector(_AMBIENT_C)
        )
        state.step(np.full(model.n_cores, 5.0), 1e-3)
        np.testing.assert_allclose(
            state.core_temperatures(),
            model.core_temperatures(state.node_temperatures()),
            rtol=0,
            atol=1e-12,
        )

    def test_step_spectral_matches_dense_step(self, dynamics16, rng):
        model = dynamics16.model
        temps = model.ambient_vector(_AMBIENT_C) + rng.uniform(
            0.0, 30.0, model.n_nodes
        )
        power = rng.uniform(0.0, 8.0, model.n_cores)
        dense = dynamics16.step(temps, power, _AMBIENT_C, 1e-3)
        spectral = dynamics16.step_spectral(temps, power, _AMBIENT_C, 1e-3)
        np.testing.assert_allclose(spectral, dense, rtol=0, atol=1e-9)


class TestStateContract:
    def test_roundtrip_through_set_node_temperatures(self, dynamics16, rng):
        model = dynamics16.model
        temps = model.ambient_vector(_AMBIENT_C) + rng.uniform(
            0.0, 40.0, model.n_nodes
        )
        state = SpectralThermalState(dynamics16, _AMBIENT_C, temps)
        np.testing.assert_allclose(
            state.node_temperatures(), temps, rtol=0, atol=1e-9
        )

    def test_projections_are_frozen(self, dynamics16):
        model = dynamics16.model
        state = SpectralThermalState(
            dynamics16, _AMBIENT_C, model.ambient_vector(_AMBIENT_C)
        )
        for array in (state.core_temperatures(), state.node_temperatures()):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_projection_cache_invalidated_by_step(self, dynamics16):
        model = dynamics16.model
        state = SpectralThermalState(
            dynamics16, _AMBIENT_C, model.ambient_vector(_AMBIENT_C)
        )
        before = state.core_temperatures()
        state.step(np.full(model.n_cores, 8.0), 2e-3)
        after = state.core_temperatures()
        assert after is not before
        assert float(np.max(after)) > float(np.max(before))

    def test_step_counter_increments(self, dynamics16):
        model = dynamics16.model
        state = SpectralThermalState(
            dynamics16, _AMBIENT_C, model.ambient_vector(_AMBIENT_C)
        )
        assert state.steps == 0
        state.step(np.full(model.n_cores, 1.0), 1e-3)
        state.step(np.full(model.n_cores, 1.0), 1e-3)
        assert state.steps == 2

    def test_rejects_wrong_shape(self, dynamics16):
        with pytest.raises(ValueError, match="node temperatures"):
            SpectralThermalState(dynamics16, _AMBIENT_C, np.zeros(3))

    def test_coefficients_property_is_a_frozen_view(self, dynamics16):
        model = dynamics16.model
        state = SpectralThermalState(
            dynamics16, _AMBIENT_C, model.ambient_vector(_AMBIENT_C)
        )
        coeffs = state.coefficients
        with pytest.raises(ValueError):
            coeffs[:] = 99.0
        assert not np.allclose(state.coefficients, 99.0)
        # a view over the live buffer, not a per-read copy
        assert coeffs.base is not None


class TestRepeatedPowerMap:
    def test_only_a_frozen_map_reuses_its_steady_coefficients(self, dynamics16):
        """A repeated frozen map steps exactly like fresh copies of it; a
        writable map edited in place between steps is read afresh."""
        model = dynamics16.model
        start = model.ambient_vector(_AMBIENT_C)
        power = np.full(model.n_cores, 2.0)
        frozen = power.copy()
        frozen.flags.writeable = False
        reused = SpectralThermalState(dynamics16, _AMBIENT_C, start)
        edited = SpectralThermalState(dynamics16, _AMBIENT_C, start)
        fresh = SpectralThermalState(dynamics16, _AMBIENT_C, start)
        for step in range(6):
            power[step % model.n_cores] += 1.0
            reused.step(frozen, 5e-4)
            edited.step(power, 5e-4)
            fresh.step(frozen.copy(), 5e-4)
            assert reused.coefficients.tobytes() == fresh.coefficients.tobytes()
        copy_state = SpectralThermalState(dynamics16, _AMBIENT_C, start)
        replay = np.full(model.n_cores, 2.0)
        for step in range(6):
            replay[step % model.n_cores] += 1.0
            copy_state.step(replay.copy(), 5e-4)
        assert edited.coefficients.tobytes() == copy_state.coefficients.tobytes()
