"""PCMig baseline: PCGov plus asynchronous, on-demand thread migrations.

PCMig (Rapp et al., DATE 2019 / TC 2020) extends PCGov with
prediction-driven thread migrations: when a core is predicted to violate the
thermal threshold soon, its thread is migrated away pre-emptively instead of
(or in addition to) slowing it down.  The published predictor is a neural
network trained on simulator traces; **our substitution uses the RC thermal
model itself as the predictor** (a short-horizon exact transient under the
currently observed power map), which upper-bounds the NN's accuracy — the
baseline here is therefore at least as strong as the published one.

Migrations are asynchronous and on-demand ("a measure of last resort",
paper Section I): at most a few per interval, each moving the thread of the
most endangered core to the coolest free core.

**Phase mapping** — how each decision phase relates to the published
baseline and to the source paper's framing (the contrast HotPotato's
Algorithm 2 is evaluated against):

====================  ======================================================
phase                 implementation
====================  ======================================================
placement             inherited from :class:`~repro.sched.pcgov.PCGovScheduler`
                      via :class:`~repro.sched.naive.StaticPlacer` —
                      lowest-AMD-first static assignment (PCGov mapping rule)
violation prediction  :meth:`PCMigScheduler._predicted_core_temps` — exact RC
                      transient ``prediction_horizon_s`` ahead under the
                      currently observed power map (substitutes the published
                      NN predictor, upper-bounding its accuracy)
migration trigger     :meth:`PCMigScheduler._maybe_migrate` — the *asynchronous,
                      on-demand* migration the source paper contrasts with its
                      *synchronous* rotations: fire only when a core is
                      predicted above ``T_DTM - guard_band_c``, at most
                      ``_MAX_MIGRATIONS_PER_INTERVAL`` per interval
DVFS enforcement      inherited PCGov governor — per-core TSP budget enforced
                      at 100 MHz steps after migrations rebalanced the map
====================  ======================================================

Parameters (constructor): ``prediction_horizon_s`` — look-ahead of the
violation check (default 5 ms, the published reaction horizon);
``guard_band_c`` — trigger margin below the DTM threshold (default 1 degC).
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from .. import units
from .base import SchedulerDecision
from .pcgov import PCGovScheduler

#: Prediction horizon [s]: how far ahead the violation check looks.
_PREDICTION_HORIZON_S = units.ms(5.0)
#: Trigger guard band [degC] below the DTM threshold.
_GUARD_BAND_C = 1.0
#: Maximum migrations performed per interval (asynchronous/on-demand).
_MAX_MIGRATIONS_PER_INTERVAL = 2


class PCMigScheduler(PCGovScheduler):
    """The paper's state-of-the-art baseline (Section VI)."""

    name = "pcmig"

    def __init__(
        self,
        prediction_horizon_s: float = _PREDICTION_HORIZON_S,
        guard_band_c: float = _GUARD_BAND_C,
    ) -> None:
        super().__init__()
        self.prediction_horizon_s = prediction_horizon_s
        self.guard_band_c = guard_band_c
        self.migration_decisions = 0
        #: the last power map lifted onto the node vector, and its lift
        self._lift_key: Optional[bytes] = None
        self._lift: Optional[np.ndarray] = None

    def attach(self, ctx) -> None:
        super().attach(ctx)
        self._lift_key = None

    # -- prediction ---------------------------------------------------------------

    def _predicted_core_temps(self) -> Optional[np.ndarray]:
        """Core temperatures ``horizon`` ahead under the current power map.

        Reads the *observed* temperatures (the sensor shim under fault
        injection, ground truth otherwise), so the predictor degrades the
        way a real platform's would: it extrapolates from what its
        sensors report, never from physically inaccessible state.
        """
        try:
            temps_now = self.observed_temperatures()
        except RuntimeError:
            return None
        idle = self.ctx.power_model.idle_power_w()
        power = np.full(self.ctx.n_cores, idle)
        # placed threads with history draw their window average
        slots, cores = self._placer.slot_arrays(self.ctx)
        window = self.ctx.power_window()
        known = window.has_history[slots]
        power[cores[known]] = window.average_w[slots[known]]
        # lift core temps onto the full node vector: approximate cooling
        # nodes with their idle-steady values (the engine only exposes core
        # temperatures, as a real sensor array would); the steady state of
        # a power map byte-equal to the last one is the last lift
        model = self.ctx.thermal_model
        ambient = self.ctx.config.thermal.ambient_c
        key = power.tobytes()
        if key != self._lift_key:
            self._lift = model.steady_state(power, ambient)
            self._lift_key = key
        nodes = self._lift.copy()
        nodes[: model.n_cores] = temps_now
        # one-shot what-if: eigenbasis step, no second steady-state solve
        future = self.ctx.dynamics.step_spectral(
            nodes, power, ambient, self.prediction_horizon_s
        )
        return model.core_temperatures(future)

    # -- migration ------------------------------------------------------------------

    def _maybe_migrate(self) -> None:
        # with no free core there is nowhere to migrate to: skip the predictor
        free = self._placer.free_cores()
        if not free:
            return
        predicted = self._predicted_core_temps()
        if predicted is None:
            return
        threshold = self.ctx.config.thermal.dtm_threshold_c - self.guard_band_c
        _, cores = self._placer.slot_arrays(self.ctx)
        if not (predicted[cores] > threshold).any():
            return
        placements = self._placer.placements
        occupied = {core: t for t, core in placements.items()}
        endangered = [
            core
            for core in occupied
            if predicted[core] > threshold
        ]
        endangered.sort(key=lambda c: -predicted[c])
        moved = False
        for core in endangered[:_MAX_MIGRATIONS_PER_INTERVAL]:
            if not free:
                break
            # coolest predicted free core; ties -> better (lower) AMD
            free.sort(key=lambda c: (predicted[c], self.ctx.rings.amd[c]))
            target = free[0]
            if predicted[target] >= predicted[core]:
                continue  # nowhere cooler to go
            self._placer.move(occupied[core], target)
            free.remove(target)
            free.append(core)
            self.migration_decisions += 1
            moved = True
        # the TSP budget depends only on the occupied-core set, which only
        # a move changes here (admit, release and failure repair recompute)
        if moved:
            self._recompute_budget()

    def decide(self, now_s: float) -> SchedulerDecision:
        self._maybe_migrate()
        return super().decide(now_s)

    def metrics(self) -> Mapping[str, float]:
        """Migration-trigger counters for the observability snapshot."""
        data = dict(super().metrics())
        data["migration_decisions"] = float(self.migration_decisions)
        return data
