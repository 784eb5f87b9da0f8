"""Public-API surface: everything the README documents must exist."""

import importlib

import pytest


class TestDocumentedEntryPoints:
    def test_package_version(self):
        import repro

        assert repro.__version__

    @pytest.mark.parametrize(
        "module, names",
        [
            ("repro.config", ["table1", "motivational", "SystemConfig"]),
            (
                "repro.thermal",
                [
                    "BatchedSpectralState",
                    "Floorplan",
                    "RCThermalModel",
                    "ThermalDynamics",
                    "build_rc_model",
                    "calibrated_model",
                    "sustainable_uniform_power",
                ],
            ),
            (
                "repro.arch",
                ["Mesh", "AmdRings", "SnucaCache", "MigrationCostModel", "Noc"],
            ),
            ("repro.power", ["PowerModel", "DvfsController", "Tsp"]),
            (
                "repro.workload",
                [
                    "PARSEC",
                    "Task",
                    "PerformanceModel",
                    "homogeneous_fill",
                    "random_mixed_workload",
                    "materialize",
                    "characterize",
                ],
            ),
            (
                "repro.core",
                [
                    "HotPotato",
                    "ThreadInfo",
                    "PeakTemperatureCalculator",
                    "RotationSchedule",
                    "rotation_peak_temperature",
                    "brute_force_peak",
                ],
            ),
            (
                "repro.sim",
                [
                    "BatchedSimulatorSet",
                    "IntervalSimulator",
                    "SimContext",
                    "SimulationResult",
                    "DtmController",
                    "EventLog",
                ],
            ),
            (
                "repro.sched",
                [
                    "HotPotatoScheduler",
                    "HotPotatoDvfsScheduler",
                    "PCMigScheduler",
                    "PCGovScheduler",
                    "PeakFrequencyScheduler",
                    "FixedRotationScheduler",
                    "AsyncMigrationScheduler",
                ],
            ),
            (
                "repro.experiments",
                ["fig1", "fig2", "fig3", "fig4a", "fig4b", "overhead",
                 "stacked3d", "table1"],
            ),
            (
                "repro.stacked",
                ["Mesh3D", "Amd3dRings", "build_rc_model_3d"],
            ),
            (
                "repro.analysis",
                ["render_heatmap", "hotspot_report", "run_pair"],
            ),
            (
                "repro.io",
                ["save_result", "load_result", "result_to_dict", "result_from_dict"],
            ),
        ],
    )
    def test_module_exports(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_all_lists_are_importable(self):
        for module in (
            "repro.thermal",
            "repro.arch",
            "repro.power",
            "repro.workload",
            "repro.core",
            "repro.sim",
            "repro.sched",
            "repro.stacked",
            "repro.analysis",
        ):
            mod = importlib.import_module(module)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{module}.__all__ lists {name}"

    def test_every_public_callable_has_docstring(self):
        """Documentation deliverable: public API items carry doc comments."""
        for module in (
            "repro.thermal",
            "repro.arch",
            "repro.power",
            "repro.core",
            "repro.sim",
            "repro.sched",
        ):
            mod = importlib.import_module(module)
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if callable(obj):
                    assert obj.__doc__, f"{module}.{name} lacks a docstring"