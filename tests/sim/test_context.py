"""SimContext wiring and construction."""

import numpy as np
import pytest

from repro import config
from repro.sim.context import PowerWindow, SimContext


class TestConstruction:
    def test_builds_all_models(self, cfg16, model16):
        ctx = SimContext(cfg16, model16)
        assert ctx.n_cores == 16
        assert ctx.mesh.n_cores == 16
        assert ctx.rings.n_rings == 3
        assert ctx.thermal_model is model16
        assert ctx.calculator.dynamics.model is model16

    def test_default_model_is_calibrated(self):
        ctx = SimContext(config.small_test())
        # the calibrated stack's knobs, not the raw defaults
        assert ctx.thermal_model.stack.lateral_scale != 1.0

    def test_tsp_uses_config_thresholds(self, cfg16, model16):
        ctx = SimContext(cfg16, model16)
        assert ctx.tsp.threshold_c == cfg16.thermal.dtm_threshold_c
        assert ctx.tsp.ambient_c == cfg16.thermal.ambient_c


class TestObservationWiring:
    def test_unwired_observations_raise(self, cfg16, model16):
        ctx = SimContext(cfg16, model16)
        with pytest.raises(RuntimeError):
            ctx.power_window()
        with pytest.raises(RuntimeError):
            ctx.core_temperatures_c()
        with pytest.raises(RuntimeError):
            ctx.thread_slots(["x"])

    def test_wired_observations_delegate(self, cfg16, model16):
        ctx = SimContext(cfg16, model16)
        temps = np.full(16, 50.0)
        window = PowerWindow(
            np.array([3.5, 0.0]), np.array([4.2, 0.0]), np.array([True, False])
        )
        slot_of = {"a": 0}
        ctx.wire_observations(lambda: temps, lambda: window, slot_of)
        assert ctx.power_window() is window
        assert ctx.thread_slots(["a"]).tolist() == [0]
        # the engine keeps the slot map current as threads arrive
        slot_of["b"] = 1
        assert ctx.thread_slots(["b", "a"]).tolist() == [1, 0]
        with pytest.raises(KeyError):
            ctx.thread_slots(["c"])
        assert np.array_equal(ctx.core_temperatures_c(), temps)
