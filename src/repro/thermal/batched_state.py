"""Batched eigenbasis-resident thermal state: S simulations, one array.

A parameter sweep runs S *independent* simulations over the *same*
floorplan — same RC network, same eigendecomposition, different power
traces.  Their spectral states are therefore S vectors living in one
shared eigenbasis, and the exact MatEx step

    c' = s + exp(lambda tau) * (c - s),      s = V^{-1} B^{-1} P

is shape-polymorphic: stacking the coefficients as ``C[S, N]`` turns S
elementwise updates into one fused broadcast over the stack.  The frozen
projections (``V``, ``V^{-1} B^{-1}``) are stored once on the shared
:class:`~repro.thermal.matex.ThermalDynamics` — cells never copy them.

Byte-identity is the design constraint, not an afterthought.  Two facts
about this decomposition make the batch bit-exact against S independent
:class:`~repro.thermal.spectral_state.SpectralThermalState` objects:

- **Elementwise broadcasts are order-free.**  ``steady + decay * (C -
  steady)`` over ``(k, N)`` performs exactly the same scalar operations,
  in the same per-element order, as the ``(N,)`` expression does per
  cell — no reductions, no re-association, bit-equal results.
- **The power projection must stay a GEMV.**  Collapsing the S
  projections into one GEMM (``P @ M.T``) is *not* byte-stable: BLAS
  GEMM accumulates in a different order than GEMV and its row results
  vary with the batch width.  The batch therefore projects each cell's
  power map through the *same* GEMV kernel the scalar path calls
  (:meth:`~repro.thermal.matex.ThermalDynamics.steady_coeffs_batch`),
  and fuses only the elementwise tail.

Decay vectors are grouped by unique tau within a step: the Algorithm-2
tau-ladder is tiny, so a lock-step sweep collapses to one or two fused
updates per step, each sharing one
:meth:`~repro.thermal.matex.ThermalDynamics.decay_vector` lookup (and
therefore one ``thermal.decay_cache`` entry) across the whole group.

Cells leave the batch through :meth:`BatchedSpectralState.detach`, which
hands the coefficient row to
:meth:`SpectralThermalState.from_coefficients` — no temperature
round-trip, so a detached cell continues the exact same trajectory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .matex import ThermalDynamics
from .spectral_state import SpectralThermalState

__all__ = ["BatchedSpectralState"]


class BatchedSpectralState:
    """S spectral thermal states stacked along a leading cell axis.

    Parameters
    ----------
    dynamics:
        The shared eigendecomposition.  All cells must live in the same
        basis; callers batching across configurations group cells by
        calibration fingerprint first (one batch per distinct
        ``ThermalDynamics``).
    ambient_c:
        Ambient temperature [degC]; a scalar shared by every cell or one
        value per cell.
    node_temps_c:
        Initial node temperatures, shape ``(S, n_nodes)`` (absolute degC).
    """

    def __init__(
        self,
        dynamics: ThermalDynamics,
        ambient_c: Union[float, Sequence[float]],
        node_temps_c: np.ndarray,
    ):
        self.dynamics = dynamics
        n_nodes = dynamics.model.n_nodes
        node_temps_c = np.asarray(node_temps_c, dtype=float)
        if node_temps_c.ndim != 2 or node_temps_c.shape[1] != n_nodes:
            raise ValueError(
                f"expected (S, {n_nodes}) node temperatures, "
                f"got shape {node_temps_c.shape}"
            )
        n_cells = node_temps_c.shape[0]
        ambient = np.asarray(ambient_c, dtype=float)
        if ambient.ndim == 0:
            ambient = np.full(n_cells, float(ambient))
        if ambient.shape != (n_cells,):
            raise ValueError(
                f"expected scalar or ({n_cells},) ambient, got {ambient.shape}"
            )
        self._ambient = ambient
        self._n_cores = dynamics.model.n_cores
        # project each cell with the same GEMV the scalar constructor uses
        self._coeffs = np.empty((n_cells, n_nodes))
        for i in range(n_cells):
            np.matmul(
                dynamics.eigenvectors_inv,
                node_temps_c[i] - self._ambient[i],
                out=self._coeffs[i],
            )
        self._core_cache: List[Optional[np.ndarray]] = [None] * n_cells
        self._node_cache: List[Optional[np.ndarray]] = [None] * n_cells
        #: per-cell eigenbasis step counters (observability)
        self.steps = np.zeros(n_cells, dtype=np.int64)
        #: number of fused tau-group updates performed (the "einsum count")
        self.fused_updates = 0
        #: total coefficient rows advanced across all fused updates
        self.rows_stepped = 0
        #: cells handed back to scalar states via :meth:`detach`
        self.detached = 0

    @classmethod
    def from_states(
        cls, states: Sequence[SpectralThermalState]
    ) -> "BatchedSpectralState":
        """Adopt S scalar states (all sharing one ``ThermalDynamics``).

        The coefficient rows are copied bit-exactly — no temperature
        round-trip — so the batch continues each state's trajectory byte
        for byte.  The donor states are left untouched.
        """
        if not states:
            raise ValueError("need at least one state to batch")
        dynamics = states[0].dynamics
        for state in states[1:]:
            if state.dynamics is not dynamics:
                raise ValueError(
                    "all batched states must share one ThermalDynamics; "
                    "group cells by calibration fingerprint first"
                )
        batch = cls.__new__(cls)
        batch.dynamics = dynamics
        batch._n_cores = dynamics.model.n_cores
        batch._ambient = np.array([s.ambient_c for s in states], dtype=float)
        batch._coeffs = np.stack([s.coefficients for s in states])
        batch._core_cache = [None] * len(states)
        batch._node_cache = [None] * len(states)
        batch.steps = np.array([s.steps for s in states], dtype=np.int64)
        batch.fused_updates = 0
        batch.rows_stepped = 0
        batch.detached = 0
        return batch

    # -- introspection -------------------------------------------------------

    @property
    def n_cells(self) -> int:
        """Current batch width."""
        return self._coeffs.shape[0]

    @property
    def coefficients(self) -> np.ndarray:
        """The stacked eigen-coefficients ``C[S, N]`` (read-only view)."""
        view = self._coeffs.view()
        view.flags.writeable = False
        return view

    def cell_coefficients(self, cell: int) -> np.ndarray:
        """One cell's eigen-coefficients (read-only view)."""
        view = self._coeffs[cell].view()
        view.flags.writeable = False
        return view

    def ambient_of(self, cell: int) -> float:
        """Ambient temperature [degC] of one cell."""
        return float(self._ambient[cell])

    def stats(self) -> Dict[str, int]:
        """Counters for the ``parallel.batch.*`` gauges."""
        return {
            "cells": int(self.n_cells),
            "fused_updates": int(self.fused_updates),
            "rows_stepped": int(self.rows_stepped),
            "detached": int(self.detached),
        }

    # -- stepping ------------------------------------------------------------

    def step(
        self,
        core_power_w: np.ndarray,
        tau_s: Union[float, Sequence[float]],
        cells: Optional[Sequence[int]] = None,
    ) -> None:
        """Advance cells by ``tau_s`` under their stacked power maps.

        ``core_power_w`` has shape ``(k, n_cores)`` — one row per stepped
        cell.  ``cells`` selects which rows of the batch advance (default:
        all of them, in which case ``k == n_cells``).  ``tau_s`` is a
        scalar shared by every stepped cell or one value per stepped
        cell; cells are grouped by unique tau so each distinct step size
        costs one decay-vector lookup and one fused broadcast.
        """
        stacked = np.asarray(core_power_w, dtype=float)
        if stacked.ndim == 1:
            stacked = stacked[None, :]
        if cells is None:
            idx = np.arange(self.n_cells)
        else:
            idx = np.asarray(cells, dtype=np.intp)
        if stacked.shape != (idx.shape[0], self._n_cores):
            raise ValueError(
                f"expected ({idx.shape[0]}, {self._n_cores}) stacked powers, "
                f"got shape {stacked.shape}"
            )
        taus = np.asarray(tau_s, dtype=float)
        if taus.ndim == 0:
            groups = [(float(taus), np.arange(idx.shape[0]))]
        else:
            if taus.shape != (idx.shape[0],):
                raise ValueError(
                    f"expected scalar or ({idx.shape[0]},) taus, "
                    f"got shape {taus.shape}"
                )
            # group by unique tau in first-seen order (deterministic)
            order: Dict[float, List[int]] = {}
            for pos, value in enumerate(taus):
                order.setdefault(float(value), []).append(pos)
            groups = [
                (value, np.asarray(positions, dtype=np.intp))
                for value, positions in order.items()
            ]
        for tau, positions in groups:
            rows = idx[positions]
            steady = self.dynamics.steady_coeffs_batch(stacked[positions])
            decay = self.dynamics.decay_vector(tau)
            # one fused broadcast per tau group: elementwise only, so each
            # row is byte-identical to the scalar state's (N,) expression
            self._coeffs[rows] = steady + decay[None, :] * (
                self._coeffs[rows] - steady
            )
            self.fused_updates += 1
            self.rows_stepped += int(rows.shape[0])
        for cell in idx:
            self._core_cache[cell] = None
            self._node_cache[cell] = None
        self.steps[idx] += 1

    # -- lazy projections ----------------------------------------------------

    def core_temperatures(self, cell: int) -> np.ndarray:
        """One cell's core temperatures [degC] (lazy, cached, frozen)."""
        if self._core_cache[cell] is None:
            v_core = self.dynamics.eigenvectors[: self._n_cores]
            projected = self._ambient[cell] + v_core @ self._coeffs[cell]
            projected.flags.writeable = False
            self._core_cache[cell] = projected
        return self._core_cache[cell]

    def node_temperatures(self, cell: int) -> np.ndarray:
        """One cell's node temperatures [degC] (lazy, cached, frozen)."""
        if self._node_cache[cell] is None:
            projected = (
                self._ambient[cell]
                + self.dynamics.eigenvectors @ self._coeffs[cell]
            )
            projected.flags.writeable = False
            self._node_cache[cell] = projected
        return self._node_cache[cell]

    # -- detach --------------------------------------------------------------

    def detach(self, cell: int) -> SpectralThermalState:
        """Remove one cell and return it as a scalar state (bit-exact).

        The remaining rows compact downward, so indices above ``cell``
        shift by one — callers that hold per-cell indices must remap
        (``BatchedSimulatorSet`` does).
        """
        state = SpectralThermalState.from_coefficients(
            self.dynamics,
            self._ambient[cell],
            self._coeffs[cell],
            steps=int(self.steps[cell]),
        )
        self._coeffs = np.delete(self._coeffs, cell, axis=0)
        self._ambient = np.delete(self._ambient, cell)
        self.steps = np.delete(self.steps, cell)
        del self._core_cache[cell]
        del self._node_cache[cell]
        self.detached += 1
        return state
