"""Lock-step batched driver: many simulators, one fused thermal step.

A burst of concurrent ``/v1/simulate`` requests
(:class:`~repro.serve.SimulateBatcher`) runs S independent
:class:`~repro.sim.engine.IntervalSimulator` instances over the same
floorplan.  Everything *decision-shaped* about those runs — scheduler
logic, DTM, fault streams, migration accounting — is scalar control flow
that must stay per-cell (the schedulers are stateful and their branches
depend on their own cell's history).  The
*thermal* hot loop, however, is shape-polymorphic: the exact MatEx step
is the same elementwise update for every cell, so S states stack into
one :class:`~repro.thermal.batched_state.BatchedSpectralState` and step
as one fused broadcast per distinct interval length.

:class:`BatchedSimulatorSet` drives the engine's phase API in lock-step:

1. every attached simulator prepares its next interval
   (:meth:`~repro.sim.engine.IntervalSimulator.prepare_interval` —
   arrivals, decision, DTM, execution, power map, all per-cell);
2. the prepared power maps are stacked and the batch advances every cell
   in one :meth:`~repro.thermal.batched_state.BatchedSpectralState.step`
   call (cells are grouped by interval length inside, so a lock-step
   sweep costs one or two fused updates per round);
3. every simulator completes its interval (energy, traces, completions).

Cells leave the batch two ways, both bit-exact:

- **finish** — ``prepare_interval`` returns ``None``; the cell is
  finalized and its coefficient row dropped;
- **divergence** — a cell whose interval length matched no other
  attached cell for :data:`DEFAULT_DETACH_AFTER` consecutive rounds is
  handed its coefficients back as a scalar
  :class:`~repro.thermal.spectral_state.SpectralThermalState` and runs
  to completion solo (:meth:`IntervalSimulator.drive_to_completion`) —
  lock-step with a diverged cell would otherwise serialize the batch on
  its odd-sized steps without fusing anything.

Byte-identity with S solo runs holds because the fused step is bit-equal
per row (``repro.thermal.batched_state``), the detach/adopt handoff
copies coefficients without a temperature round-trip, and the only state
shared between cells (eigendecomposition caches, peak-temperature memos)
is pure memoization of deterministic values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..thermal.batched_state import BatchedSpectralState
from .engine import IntervalPlan, IntervalSimulator
from .metrics import SimulationResult

__all__ = ["BatchedSimulatorSet"]

#: Consecutive rounds a cell's interval length must stay unique before it
#: detaches to a solo run.  One odd-sized step (an arrival-clipped
#: interval) is normal; a sustained mismatch means the cell's scheduler
#: settled on a different rotation epoch than everyone else.
DEFAULT_DETACH_AFTER = 8


class _BatchCellView:
    """Thermal-state stand-in installed into a batched simulator.

    Exposes the read interface the engine's prepare/complete phases use
    (``core_temperatures``/``node_temperatures``), routed through the
    live batch row.  Stepping is the batch driver's job — a stray
    ``step`` call means a simulator is being driven outside the set, so
    it fails loudly instead of silently double-stepping.
    """

    __slots__ = ("_set", "_sim_index")

    def __init__(self, owner: "BatchedSimulatorSet", sim_index: int):
        self._set = owner
        self._sim_index = sim_index

    def _cell(self) -> int:
        return self._set._cell_of[self._sim_index]

    def core_temperatures(self) -> np.ndarray:
        return self._set._batch.core_temperatures(self._cell())

    def node_temperatures(self) -> np.ndarray:
        return self._set._batch.node_temperatures(self._cell())

    def step(self, core_power_w, tau_s) -> None:
        raise RuntimeError(
            "batched cell: thermal stepping happens in the fused batch "
            "(detach the cell before driving its simulator directly)"
        )


class BatchedSimulatorSet:
    """Drive S simulators in lock-step with fused thermal stepping.

    All simulators must share one ``ThermalDynamics`` instance (their
    contexts built with an injected ``dynamics=``); callers batching
    across configurations group by dynamics first — one set per basis.
    """

    def __init__(
        self,
        sims: Sequence[IntervalSimulator],
        metrics=None,
    ):
        """``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
        receives the ``parallel.batch.*`` gauges after :meth:`run_all`.
        It is deliberately *not* the per-simulator registries: the cells'
        own metrics snapshots must stay byte-identical to solo runs."""
        if not sims:
            raise ValueError("need at least one simulator to batch")
        dynamics = sims[0].ctx.dynamics
        for sim in sims[1:]:
            if sim.ctx.dynamics is not dynamics:
                raise ValueError(
                    "all batched simulators must share one ThermalDynamics; "
                    "group cells by calibration fingerprint first"
                )
        self.sims: List[IntervalSimulator] = list(sims)
        self._metrics = metrics
        self._batch: Optional[BatchedSpectralState] = None
        #: simulator index -> current row in the (compacting) batch
        self._cell_of: List[Optional[int]] = [None] * len(self.sims)
        self._solo_streak = [0] * len(self.sims)
        #: counters for the ``parallel.batch.*`` gauges
        self.initial_width = len(self.sims)
        self.max_width = len(self.sims)
        self.rounds = 0
        self.detached_finished = 0
        self.detached_diverged = 0

    # -- bookkeeping ---------------------------------------------------------

    def _drop_cell(self, sim_index: int) -> int:
        """Forget a simulator's row; rows above it compact down by one."""
        row = self._cell_of[sim_index]
        self._cell_of[sim_index] = None
        for other, cell in enumerate(self._cell_of):
            if cell is not None and cell > row:
                self._cell_of[other] = cell - 1
        return row

    def stats(self) -> Dict[str, int]:
        """Counters for the ``parallel.batch.*`` gauges."""
        data = {
            "width_initial": int(self.initial_width),
            "width_max": int(self.max_width),
            "rounds": int(self.rounds),
            "detached_finished": int(self.detached_finished),
            "detached_diverged": int(self.detached_diverged),
        }
        if self._batch is not None:
            batch = self._batch.stats()
            data["fused_updates"] = batch["fused_updates"]
            data["rows_stepped"] = batch["rows_stepped"]
        return data

    # -- the lock-step loop ----------------------------------------------------

    def run_all(self, max_time_s=10.0) -> List[SimulationResult]:
        """Run every simulator to completion; results in input order.

        ``max_time_s`` is a scalar horizon shared by every cell, or a
        per-simulator sequence (a serve burst may mix horizons; cells
        that hit their shorter horizon simply finish and detach early).
        """
        horizons = np.broadcast_to(
            np.asarray(max_time_s, dtype=float), (len(self.sims),)
        )
        for sim, horizon in zip(self.sims, horizons):
            sim.begin_run(float(horizon))
        self._batch = BatchedSpectralState.from_states(
            [sim.thermal_state for sim in self.sims]
        )
        for index, sim in enumerate(self.sims):
            self._cell_of[index] = index
            sim.adopt_thermal_state(_BatchCellView(self, index))

        results: List[Optional[SimulationResult]] = [None] * len(self.sims)

        attached = list(range(len(self.sims)))
        while attached:
            self.rounds += 1
            plans: List[tuple] = []
            for index in list(attached):
                plan = self.sims[index].prepare_interval()
                if plan is None:
                    self._batch.detach(self._drop_cell(index))
                    attached.remove(index)
                    self.detached_finished += 1
                    results[index] = self.sims[index].finalize()
                else:
                    plans.append((index, plan))
            if not plans:
                break

            # one fused step for the whole round: the batch groups the
            # stacked rows by interval length internally
            rows = [self._cell_of[index] for index, _ in plans]
            stacked = np.stack([plan.power_w for _, plan in plans])
            taus = np.array([plan.dt_s for _, plan in plans])
            self._batch.step(stacked, taus, cells=rows)
            for index, plan in plans:
                self.sims[index].complete_interval(plan)

            # divergence detection: a cell alone in its dt-group for
            # DEFAULT_DETACH_AFTER consecutive rounds leaves the batch
            if len(plans) > 1:
                counts: Dict[float, int] = {}
                for _, plan in plans:
                    counts[plan.dt_s] = counts.get(plan.dt_s, 0) + 1
                for index, plan in plans:
                    if counts[plan.dt_s] == 1:
                        self._solo_streak[index] += 1
                    else:
                        self._solo_streak[index] = 0
                for index, _ in plans:
                    if (
                        self._solo_streak[index] >= DEFAULT_DETACH_AFTER
                        and len(attached) > 1
                    ):
                        self._detach_solo(index, attached, results)

            # a lone survivor fuses nothing: hand it back to itself
            if len(attached) == 1:
                self._detach_solo(attached[0], attached, results)

        if self._metrics is not None:
            for key, value in self.stats().items():
                self._metrics.gauge(f"parallel.batch.{key}").set(value)
        return results

    def _detach_solo(
        self,
        index: int,
        attached: List[int],
        results: List[Optional[SimulationResult]],
    ) -> None:
        """Hand a cell its scalar state back and run it to completion."""
        state = self._batch.detach(self._drop_cell(index))
        attached.remove(index)
        self.detached_diverged += 1
        sim = self.sims[index]
        sim.adopt_thermal_state(state)
        results[index] = sim.drive_to_completion()
