"""RC thermal network structure (the paper's Eq. 1 requirements)."""

import numpy as np
import pytest

from repro import config
from repro.sched.hotpotato_runtime import HotPotatoScheduler
from repro.sched.pcmig import PCMigScheduler
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.stacked import Mesh3D, build_rc_model_3d, default_stacked_stack
from repro.thermal import calibrated_model
from repro.thermal.floorplan import Floorplan
from repro.thermal.rc_model import MaterialStack, RCThermalModel, build_rc_model
from repro.workload.generator import homogeneous_fill, materialize


@pytest.fixture(scope="module")
def model():
    return build_rc_model(Floorplan(4, 4), MaterialStack())


class TestStructure:
    def test_node_count(self, model):
        # n silicon + n spreader + 1 sink
        assert model.n_nodes == 2 * 16 + 1
        assert model.sink_node == 32
        assert model.spreader_node(3) == 19

    def test_b_symmetric(self, model):
        b = model.b_matrix
        assert np.allclose(b, b.T)

    def test_b_positive_definite(self, model):
        eigs = np.linalg.eigvalsh(model.b_matrix)
        assert np.all(eigs > 0)

    def test_a_diagonal_positive(self, model):
        assert np.all(model.capacitance_vector > 0)

    def test_row_sums_equal_ambient_conductance(self, model):
        # B = Laplacian + diag(G): every row sums to its ambient leg
        sums = model.b_matrix.sum(axis=1)
        assert np.allclose(sums, model.g_vector, atol=1e-12)

    def test_only_sink_touches_ambient(self, model):
        g = model.g_vector
        assert g[model.sink_node] > 0
        assert np.all(g[: model.sink_node] == 0)

    def test_silicon_couples_to_own_spreader(self, model):
        b = model.b_matrix
        for core in range(model.n_cores):
            assert b[core, model.spreader_node(core)] < 0  # conductance

    def test_no_direct_silicon_to_sink(self, model):
        b = model.b_matrix
        for core in range(model.n_cores):
            assert b[core, model.sink_node] == 0

    def test_capacitance_readonly(self, model):
        with pytest.raises(ValueError):
            model.capacitance_vector[0] = 1.0


class TestSteadyState:
    def test_zero_power_is_ambient(self, model):
        temps = model.steady_state(np.zeros(16), ambient_c=45.0)
        assert np.allclose(temps, 45.0)

    def test_power_raises_temperature(self, model):
        power = np.zeros(16)
        power[5] = 5.0
        temps = model.steady_state(power, 45.0)
        assert np.all(temps >= 45.0 - 1e-9)
        assert temps[5] > 50.0

    def test_heated_core_is_hottest(self, model):
        power = np.zeros(16)
        power[5] = 5.0
        temps = model.steady_state(power, 45.0)
        assert np.argmax(temps[:16]) == 5

    def test_linearity_in_power(self, model):
        p1 = np.random.default_rng(0).uniform(0, 5, 16)
        p2 = np.random.default_rng(1).uniform(0, 5, 16)
        t1 = model.steady_state(p1, 45.0) - 45.0
        t2 = model.steady_state(p2, 45.0) - 45.0
        t12 = model.steady_state(p1 + p2, 45.0) - 45.0
        assert np.allclose(t12, t1 + t2, atol=1e-9)

    def test_ambient_shift(self, model):
        power = np.full(16, 2.0)
        t45 = model.steady_state(power, 45.0)
        t25 = model.steady_state(power, 25.0)
        assert np.allclose(t45 - t25, 20.0)

    def test_symmetry_of_mirrored_hotspots(self, model):
        # cores 5 and 10 are point-symmetric on a 4x4 grid
        p_a = np.zeros(16)
        p_a[5] = 4.0
        p_b = np.zeros(16)
        p_b[10] = 4.0
        peak_a = np.max(model.steady_state(p_a, 45.0))
        peak_b = np.max(model.steady_state(p_b, 45.0))
        assert peak_a == pytest.approx(peak_b, rel=1e-9)


@pytest.fixture(scope="module", params=["small_test", "model16", "model64", "stacked"])
def any_model(request):
    if request.param == "small_test":
        return calibrated_model(config.small_test())
    if request.param == "stacked":
        return build_rc_model_3d(Mesh3D(4, 4, 2), default_stacked_stack())
    return request.getfixturevalue(request.param)


class TestFactoredSteadyState:
    """``steady_state`` solves against the LU factor of ``B`` taken once at
    construction.  A dense solve is that same ``getrf`` + ``getrs`` pair,
    so the factored path must reproduce it bit for bit (BLAS is pinned to
    one thread in ``tests/conftest.py``; threaded factorizations of the
    NumPy and SciPy BLAS builds differ in the last bits)."""

    def test_single_map_matches_dense_solve_exactly(self, any_model):
        rng = np.random.default_rng(7)
        b = any_model.b_matrix
        for _ in range(50):
            power = rng.uniform(0.0, 8.0, any_model.n_cores)
            power[rng.random(any_model.n_cores) < 0.3] = 0.3
            dense = np.linalg.solve(b, any_model.expand_power(power)) + 45.0
            assert np.array_equal(any_model.steady_state(power, 45.0), dense)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_stacked_maps_match_multi_rhs_dense_solve(self, any_model, k):
        rng = np.random.default_rng(k)
        seq = rng.uniform(0.0, 8.0, (k, any_model.n_cores))
        p_nodes = np.stack([any_model.expand_power(p) for p in seq])
        dense = np.linalg.solve(any_model.b_matrix, p_nodes.T).T
        rises = any_model.steady_rise(seq)
        assert rises.shape == (k, any_model.n_nodes)
        assert np.array_equal(rises, dense)

    def test_rejects_bad_shapes(self, any_model):
        n = any_model.n_cores
        for bad in (np.ones(n - 1), np.ones((2, n)), np.ones((n, 1)), 3.0):
            with pytest.raises(ValueError):
                any_model.steady_state(bad, 45.0)
        for bad in (np.ones(n + 1), np.ones((2, n - 1)), np.ones((1, 2, n)), 3.0):
            with pytest.raises(ValueError):
                any_model.steady_rise(bad)

    def test_singular_b_raises_on_use(self):
        fp = Floorplan(2, 2)
        good = build_rc_model(fp, MaterialStack())
        cond = np.zeros((good.n_nodes, good.n_nodes))
        model = RCThermalModel(
            fp, good.capacitance_vector.copy(), cond, good.g_vector, good.stack
        )
        with pytest.raises(np.linalg.LinAlgError):
            model.steady_state(np.ones(4), 45.0)


class TestNoDenseSolveInTheLoop:
    """The schedulers' per-interval steady states (PCMig's predictor,
    HotPotato's non-rotating candidates, the engine warm start) go through
    the factored ``B``: a run must not call the dense solver at all."""

    @pytest.mark.parametrize("scheduler", ["pcmig", "hotpotato"])
    def test_short_64_core_run_makes_no_dense_solve(
        self, monkeypatch, cfg64, model64, scheduler
    ):
        counts = {"dense": 0, "factored": 0}
        dense, factored = np.linalg.solve, RCThermalModel.steady_rise

        def counting_dense(*args, **kwargs):
            counts["dense"] += 1
            return dense(*args, **kwargs)

        def counting_factored(self, *args, **kwargs):
            counts["factored"] += 1
            return factored(self, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_dense)
        monkeypatch.setattr(RCThermalModel, "steady_rise", counting_factored)
        cls = PCMigScheduler if scheduler == "pcmig" else HotPotatoScheduler
        sim = IntervalSimulator(
            cfg64,
            cls(),
            materialize(homogeneous_fill("blackscholes", 64, seed=1)),
            ctx=SimContext(cfg64, model64),
        )
        sim.run(max_time_s=0.05)
        assert counts["dense"] == 0
        assert counts["factored"] > 1  # warm start plus in-run queries


class TestPowerExpansion:
    def test_expand_power_shape(self, model):
        full = model.expand_power(np.ones(16))
        assert full.shape == (33,)
        assert np.all(full[:16] == 1.0)
        assert np.all(full[16:] == 0.0)

    def test_expand_power_rejects_bad_shape(self, model):
        with pytest.raises(ValueError):
            model.expand_power(np.ones(8))

    def test_core_temperatures_extraction(self, model):
        nodes = np.arange(33, dtype=float)
        assert np.array_equal(model.core_temperatures(nodes), np.arange(16.0))

    def test_core_temperatures_rejects_bad_shape(self, model):
        with pytest.raises(ValueError):
            model.core_temperatures(np.zeros(10))


class TestSpreaderMargin:
    def test_margin_helps_corners_more_than_center(self):
        """The overhang conductance attaches to boundary blocks only, so
        adding it must cool a corner hotspot more than a centre hotspot."""
        import dataclasses

        fp = Floorplan(8, 8)
        with_margin = build_rc_model(fp, MaterialStack())
        without = build_rc_model(
            fp, dataclasses.replace(MaterialStack(), spreader_margin_factor=0.0)
        )
        center = fp.core_at(3, 3)
        corner = fp.core_at(0, 0)

        def peak(model, hot):
            power = np.full(64, 0.3)
            power[hot] = 8.0
            return np.max(
                model.core_temperatures(model.steady_state(power, 45.0))
            )

        center_gain = peak(without, center) - peak(with_margin, center)
        corner_gain = peak(without, corner) - peak(with_margin, corner)
        assert corner_gain > center_gain

    def test_margin_disabled_removes_differential_sign(self):
        fp = Floorplan(4, 4)
        stack = MaterialStack()
        import dataclasses

        no_margin = dataclasses.replace(stack, spreader_margin_factor=0.0)
        model = build_rc_model(fp, no_margin)
        # without overhang, corner runs hotter than with it
        model_margin = build_rc_model(fp, stack)
        power = np.full(16, 0.3)
        power[0] = 8.0
        peak_no = np.max(model.core_temperatures(model.steady_state(power, 45.0)))
        peak_with = np.max(
            model_margin.core_temperatures(model_margin.steady_state(power, 45.0))
        )
        assert peak_no > peak_with


class TestValidation:
    def test_rejects_asymmetric_conductance(self):
        fp = Floorplan(2, 2)
        good = build_rc_model(fp, MaterialStack())
        bad = good.b_matrix
        bad[0, 1] += 1.0
        from repro.thermal.rc_model import RCThermalModel

        with pytest.raises(ValueError):
            RCThermalModel(
                fp, good.capacitance_vector.copy(), bad, good.g_vector, good.stack
            )

    def test_rejects_nonpositive_capacitance(self):
        fp = Floorplan(2, 2)
        good = build_rc_model(fp, MaterialStack())
        cap = good.capacitance_vector.copy()
        cap[0] = 0.0
        from repro.thermal.rc_model import RCThermalModel

        with pytest.raises(ValueError):
            RCThermalModel(fp, cap, good.b_matrix, good.g_vector, good.stack)
