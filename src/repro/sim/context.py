"""The model bundle a scheduler operates on.

A :class:`SimContext` packages every substrate model built for one simulated
platform — floorplan, RC thermal model and its dynamics, mesh/AMD rings,
S-NUCA performance model, power model, DVFS table, TSP budgets, migration
costs — plus run-time observation hooks that the engine wires up (thread
power history, current temperatures).  Schedulers receive it via
``attach()`` and must treat it as read-only.

Thread power is observed per thread *slot*, the integer index the engine
gives each thread for its life: :meth:`SimContext.power_window` returns
every slot's window average at once, and a scheduler gathers its threads'
entries with the slot array :meth:`SimContext.thread_slots` returns.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Optional

import numpy as np

from ..arch.amd import AmdRings
from ..arch.cache import MigrationCostModel
from ..arch.topology import Mesh
from ..config import SystemConfig
from ..core.peak_temperature import PeakTemperatureCalculator
from ..power.dvfs import DvfsController
from ..power.model import PowerModel
from ..power.tsp import Tsp
from ..thermal.calibrate import calibrated_model
from ..thermal.matex import ThermalDynamics
from ..thermal.rc_model import RCThermalModel
from ..workload.perf import PerformanceModel


class PowerWindow(NamedTuple):
    """Every thread slot's power observations after the latest interval.

    Entries of slots without history are meaningless (zero); readers mask
    them with ``has_history``.  Valid until the next interval records.
    """

    #: average power over the last 10 ms window [W] (the paper's signal)
    average_w: np.ndarray
    #: the latest per-interval power sample [W]
    recent_w: np.ndarray
    #: whether the slot has recorded a sample since its thread arrived
    has_history: np.ndarray


class SimContext:
    """All platform models for one simulation, built from a SystemConfig."""

    def __init__(
        self,
        config: SystemConfig,
        model: Optional[RCThermalModel] = None,
        dynamics: Optional[ThermalDynamics] = None,
        calculator: Optional[PeakTemperatureCalculator] = None,
    ):
        self.config = config
        self.mesh = Mesh(config.mesh_width, config.mesh_height)
        self.rings = AmdRings(self.mesh)
        # the expensive substrates can be injected prebuilt: the serve
        # layer (repro.serve.ServeCache) shares one eigendecomposition and
        # one Algorithm-1 calculator across every tenant with the same
        # floorplan/config fingerprint instead of redoing the O(N^3) work
        # per tenant
        if dynamics is not None:
            self.thermal_model = dynamics.model
            self.dynamics = dynamics
        else:
            self.thermal_model = (
                model if model is not None else calibrated_model(config)
            )
            self.dynamics = ThermalDynamics(self.thermal_model)
        thermal = config.thermal
        self.calculator = (
            calculator
            if calculator is not None
            else PeakTemperatureCalculator(
                self.dynamics,
                thermal.ambient_c,
                # every thermal parameter a cached peak's interpretation
                # depends on: a shared memo keyed without these could
                # serve one tenant another tenant's answer
                config_key=(
                    thermal.ambient_c,
                    thermal.dtm_threshold_c,
                    thermal.dtm_hysteresis_c,
                ),
            )
        )
        self.power_model = PowerModel(config.dvfs, config.thermal)
        self.dvfs = DvfsController(config.dvfs, self.power_model)
        self.perf = PerformanceModel(
            self.mesh, config.cache, config.noc, config.dvfs
        )
        self.migration = MigrationCostModel(self.mesh, config.cache, config.noc)
        self.tsp = Tsp(
            self.thermal_model,
            config.thermal.ambient_c,
            config.thermal.dtm_threshold_c,
            config.thermal.idle_power_w,
        )
        # run-time observation hooks, wired by the engine before use
        self._core_temps_fn: Optional[Callable[[], np.ndarray]] = None
        self._power_window_fn: Optional[Callable[[], PowerWindow]] = None
        self._slot_of: Optional[Mapping[str, int]] = None
        #: scheduler-visible sensor bus; ``None`` means perfect sensors
        #: (attached by the engine when fault injection is enabled)
        self.sensors = None

    @property
    def n_cores(self) -> int:
        """Number of cores of the simulated platform."""
        return self.mesh.n_cores

    # -- run-time observations ---------------------------------------------------

    def wire_observations(
        self,
        core_temps_fn: Callable[[], np.ndarray],
        power_window_fn: Callable[[], PowerWindow],
        slot_of: Mapping[str, int],
    ) -> None:
        """Engine hook: install the run-time observations.

        ``slot_of`` maps each live thread id to its slot; the engine keeps
        it current as threads arrive and exit.
        """
        self._core_temps_fn = core_temps_fn
        self._power_window_fn = power_window_fn
        self._slot_of = slot_of

    def power_window(self) -> PowerWindow:
        """Every thread slot's power observations, as slot vectors."""
        if self._power_window_fn is None:
            raise RuntimeError("observations not wired; is the engine running?")
        return self._power_window_fn()

    def thread_slots(self, thread_ids: Iterable[str]) -> np.ndarray:
        """Slots of live threads, in order (``KeyError`` for an unknown id)."""
        if self._slot_of is None:
            raise RuntimeError("observations not wired; is the engine running?")
        slot_of = self._slot_of
        return np.array([slot_of[thread] for thread in thread_ids], dtype=np.intp)

    def attach_sensors(self, sensors) -> None:
        """Engine hook: install the faulty sensor bus schedulers read.

        ``sensors`` is a :class:`~repro.faults.SensorShim`; once attached,
        :meth:`repro.sched.base.Scheduler.observed_temperatures` routes
        through it instead of the ground-truth temperatures.
        """
        self.sensors = sensors

    def core_temperatures_c(self) -> np.ndarray:
        """Instantaneous ground-truth core temperatures.

        Schedulers must not call this directly — they read
        :meth:`repro.sched.base.Scheduler.observed_temperatures`, which
        honours the sensor shim when fault injection is active (enforced
        by the ``fault-unguarded-reading`` lint rule).
        """
        if self._core_temps_fn is None:
            raise RuntimeError("observations not wired; is the engine running?")
        return self._core_temps_fn()
