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
violation prediction  :class:`ViolationPredictor` — exact RC transient
                      ``prediction_horizon_s`` ahead under the currently
                      observed power map (substitutes the published NN
                      predictor, upper-bounding its accuracy); a certified
                      affine screen settles the predictions that cannot
                      reach the trigger without the transient step
migration trigger     :class:`OnDemandMigration` — the *asynchronous,
                      on-demand* migration the source paper contrasts with its
                      *synchronous* rotations: fire only when a core is
                      predicted above ``T_DTM - guard_band_c``, at most
                      ``MAX_MIGRATIONS_PER_INTERVAL`` per interval
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
from ..thermal.rc_model import gamma
from .base import SchedulerDecision
from .naive import StaticPlacer
from .pcgov import PCGovScheduler

#: Prediction horizon [s]: how far ahead the violation check looks.
PREDICTION_HORIZON_S = units.ms(5.0)
#: Trigger guard band [degC] below the DTM threshold.
GUARD_BAND_C = 1.0
#: Maximum migrations performed per interval (asynchronous/on-demand).
MAX_MIGRATIONS_PER_INTERVAL = 2
#: Distance [degC] the predictor screen keeps below the trigger; it
#: dominates :meth:`ViolationPredictor.error_bound` over the envelope
#: below on table1, the 4x4 mesh and the 3D stack.
PREDICT_MARGIN_C = 1e-6
#: The screen's envelope: the largest |reading - ambient| [degC] and
#: |core power| [W] it is certified for; outside it the exact path runs.
PREDICT_ENVELOPE_C = 250.0
PREDICT_ENVELOPE_W = 100.0


class ViolationPredictor:
    """Core temperatures ``horizon_s`` ahead under a constant power map.

    The exact prediction lifts the core readings onto the node vector
    (cooling nodes at the map's steady state) and takes one eigenbasis
    step, so it is affine in the readings: ``offset(P) + G (T_now -
    ambient)``, ``G`` the core block of ``exp(C horizon)``, ``offset``
    cached with the lift per map.  :meth:`predict` screens with that form
    and steps exactly only when a watched core comes within
    ``PREDICT_MARGIN_C`` of the threshold; the margin dominates the
    rounding of both forms (:meth:`error_bound`, proven at construction
    over the envelope).
    """

    def __init__(
        self, dynamics, ambient_c: float, idle_power_w: float, horizon_s: float
    ) -> None:
        self.dynamics = dynamics
        self.horizon_s = horizon_s
        self._ambient = ambient_c
        self._idle_w = idle_power_w
        n_cores = dynamics.model.n_cores
        self._decay = np.exp(dynamics.eigenvalues * horizon_s)
        self._gain = (dynamics.eigenvectors[:n_cores] * self._decay) @ (
            dynamics.eigenvectors_inv[:, :n_cores]
        )
        #: the last power map's key, node lift and offset, and whether it
        #: lies inside the envelope
        self._key: Optional[bytes] = None
        self._lift = self._offset = None
        self._inside = False
        # B^-1 >= 0 entrywise (an M-matrix inverse), so a map inside the
        # envelope lifts no node above the envelope map's lift
        envelope = np.full(n_cores, PREDICT_ENVELOPE_W)
        bound = self.error_bound(envelope, PREDICT_ENVELOPE_C)
        #: whether the margin covers the envelope (else: always exact)
        self.certified = bound <= PREDICT_MARGIN_C
        #: predictions the screen settled, and those stepped exactly
        self.screened = 0
        self.exact = 0

    def power_map(self, slots, cores, sample_w, known) -> np.ndarray:
        """Idle power everywhere but on ``cores``, whose threads (engine
        ``slots``) draw their ``sample_w`` where they have history."""
        power = np.full(self.dynamics.model.n_cores, self._idle_w)
        known = known[slots]
        power[cores[known]] = sample_w[slots[known]]
        return power

    def _exact(self, power: np.ndarray, temps_now) -> np.ndarray:
        model = self.dynamics.model
        nodes = self._lift.copy()
        nodes[: model.n_cores] = temps_now
        future = self.dynamics.step_spectral(
            nodes, power, self._ambient, self.horizon_s
        )
        return model.core_temperatures(future)

    def _prepare(self, power: np.ndarray) -> None:
        """Lift and offset of ``power`` (kept while the map is equal)."""
        key = power.tobytes()
        if key != self._key:
            self._lift = self.dynamics.model.steady_state(power, self._ambient)
            self._offset = self._exact(power, self._ambient)
            self._key = key
            self._inside = float(np.abs(power).max()) <= PREDICT_ENVELOPE_W

    def predict(
        self, power: np.ndarray, temps_now: np.ndarray, cores, threshold_c: float
    ) -> Optional[np.ndarray]:
        """Exact predicted core temperatures, or ``None`` when the screen
        proves that none of ``cores`` is predicted above ``threshold_c``."""
        self._prepare(power)
        rise = temps_now - self._ambient
        if not cores.size or (
            self.certified
            and self._inside
            and float(np.abs(rise).max()) <= PREDICT_ENVELOPE_C
            and float((self._offset + self._gain @ rise)[cores].max())
            + PREDICT_MARGIN_C
            <= threshold_c
        ):
            self.screened += 1
            return None
        self.exact += 1
        return self._exact(power, temps_now)

    def error_bound(self, power: np.ndarray, rise_c) -> float:
        """Proven bound [degC] on |screened - exact prediction| of every
        core under ``power``, for readings at most ``rise_c`` from ambient.

        The reference is real arithmetic on the stored eigenvectors,
        steady projection, decay vector and lift.  Along any path from an
        input to an output the exact step rounds at most ``2N + 5`` times
        (shift, ``N``-term projection, ``n``-term steady coefficients, three
        decay-update operations, ``N``-term back projection, ambient), so
        it errs by at most ``gamma_{2N+6} A(x)``, ``A`` the same evaluation
        in absolute values (Higham, Sec. 3.5).  The screen is that step at
        ``x = 0`` plus a gain product of at most ``N + n + 3`` roundings
        adding ``|V||d||V^-1| |x| = A(x) - A(0)``: again ``gamma_{2N+6}
        A(x)``.  ``A`` grows with every input's magnitude.  The 1 % slack
        covers the bound's own evaluation and the threshold test.
        """
        dynamics = self.dynamics
        n_cores = dynamics.model.n_cores
        self._prepare(power)
        shifted = np.abs(self._lift - self._ambient)
        shifted[:n_cores] = np.abs(rise_c)
        steady = np.abs(dynamics.steady_projection) @ np.abs(power)
        coeffs = np.abs(dynamics.eigenvectors_inv) @ shifted
        magnitude = abs(self._ambient) + np.abs(dynamics.eigenvectors[:n_cores]) @ (
            steady + self._decay * (coeffs + steady)
        )
        rounding = gamma(2 * dynamics.model.n_nodes + 6)
        return 1.01 * 2 * rounding * float(magnitude.max())


class OnDemandMigration:
    """The asynchronous, on-demand migration trigger, shared by PCMig and
    the async-migration baseline: a mixin before their scheduler base.

    Subclasses place through a :class:`~repro.sched.naive.StaticPlacer`
    (``_placer``); the power map reads the window field named by
    ``sample``.  Each interval, at most ``MAX_MIGRATIONS_PER_INTERVAL``
    threads leave the cores predicted hottest above ``T_DTM -
    guard_band_c``, each for the coolest predicted free core (ties: lower
    AMD) when that is cooler.
    """

    #: the :class:`~repro.sim.context.PowerWindow` field feeding the map
    sample = "average_w"
    _placer: Optional[StaticPlacer]

    def __init__(
        self,
        prediction_horizon_s: float = PREDICTION_HORIZON_S,
        guard_band_c: float = GUARD_BAND_C,
    ) -> None:
        super().__init__()
        self.prediction_horizon_s = prediction_horizon_s
        self.guard_band_c = guard_band_c
        self.migration_decisions = 0
        self._predictor: Optional[ViolationPredictor] = None

    def attach(self, ctx) -> None:
        super().attach(ctx)
        self._predictor = ViolationPredictor(
            ctx.dynamics,
            ctx.config.thermal.ambient_c,
            ctx.power_model.idle_power_w(),
            self.prediction_horizon_s,
        )

    def _maybe_migrate(self) -> bool:
        """Take this interval's migrations; returns whether any moved."""
        # with no free core there is nowhere to migrate to: skip the predictor
        free = self._placer.free_cores()
        if not free:
            return False
        try:
            temps_now = self.observed_temperatures()
        except RuntimeError:
            return False
        threshold = self.ctx.config.thermal.dtm_threshold_c - self.guard_band_c
        # placed threads with history draw their window sample
        slots, cores = self._placer.slot_arrays(self.ctx)
        window = self.ctx.power_window()
        sample_w = getattr(window, self.sample)
        power = self._predictor.power_map(slots, cores, sample_w, window.has_history)
        predicted = self._predictor.predict(power, temps_now, cores, threshold)
        if predicted is None or not (predicted[cores] > threshold).any():
            return False
        occupied = {core: t for t, core in self._placer.placements.items()}
        endangered = sorted(
            (core for core in occupied if predicted[core] > threshold),
            key=lambda c: -predicted[c],
        )
        moved = False
        for core in endangered[:MAX_MIGRATIONS_PER_INTERVAL]:
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
        return moved


class PCMigScheduler(OnDemandMigration, PCGovScheduler):
    """The paper's state-of-the-art baseline (Section VI)."""

    name = "pcmig"

    def decide(self, now_s: float) -> SchedulerDecision:
        # the TSP budget depends only on the occupied-core set, which only
        # a move changes here (admit, release and failure repair recompute)
        if self._maybe_migrate():
            self._recompute_budget()
        return super().decide(now_s)

    def metrics(self) -> Mapping[str, float]:
        """Migration-trigger counters for the observability snapshot."""
        data = dict(super().metrics())
        data["migration_decisions"] = float(self.migration_decisions)
        if self._predictor is not None:
            # predictions the certified screen settled, and those stepped
            # exactly (``sched.predict_*`` gauges)
            data["predict_screened"] = float(self._predictor.screened)
            data["predict_exact"] = float(self._predictor.exact)
        return data
