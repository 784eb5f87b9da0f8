"""Eigenbasis-resident thermal state: the interval engine's fast path.

The dense stepping path (:meth:`repro.thermal.matex.ThermalDynamics.step`)
pays, per simulated interval, one ``O(N^3)`` steady-state solve plus an
``O(N^2)`` dense matrix-vector product.  But for a *resident* state both
costs are avoidable: with the ambient-shifted node temperatures held as
eigen-coefficients ``c = V^{-1} (T - T_amb)``, one exact MatEx step under
constant core power ``P`` is

    c' = s + exp(lambda tau) * (c - s),      s = V^{-1} B^{-1} P

— an ``O(N n)`` projection of the power map (``n`` = cores) plus an
``O(N)`` elementwise decay.  No dense ``exp(C tau)`` matrix is ever formed
and no linear system is solved.  Projection back to temperatures
(``T = T_amb + V c``) happens lazily, only when the scheduler, DTM layer
or an observer actually reads them, and is cached until the next step.

This is exactly the spectral structure MatEx (Pagani et al., DATE 2015)
exploits for peak detection, applied to the simulator's own hot loop; it is
what makes per-interval thermal queries cheap enough to run a scheduler
every epoch.  The equivalence suite (``tests/thermal/test_spectral_state.py``)
asserts agreement with the dense path to ``<= 1e-9`` degC over mixed-power
traces.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .matex import ThermalDynamics

__all__ = ["SpectralThermalState", "is_frozen"]


def is_frozen(array) -> bool:
    """Whether ``array`` is a read-only ndarray owning its data, which
    nothing can change while it is held."""
    frozen = isinstance(array, np.ndarray) and not array.flags.writeable
    return frozen and array.base is None


class SpectralThermalState:
    """Mutable node-temperature state held as eigen-coefficients.

    Parameters
    ----------
    dynamics:
        The eigendecomposition to live in.
    ambient_c:
        Ambient temperature [degC]; the state stores offsets from it.
    node_temps_c:
        Initial full node temperature vector (absolute degC).
    """

    def __init__(
        self,
        dynamics: ThermalDynamics,
        ambient_c: float,
        node_temps_c: np.ndarray,
    ):
        self.dynamics = dynamics
        self.ambient_c = float(ambient_c)
        self._n_cores = dynamics.model.n_cores
        self._coeffs = np.empty(dynamics.model.n_nodes)
        self._core_cache: Optional[np.ndarray] = None
        self._node_cache: Optional[np.ndarray] = None
        #: the last frozen power map stepped under, and its steady
        #: coefficients
        self._power: Optional[np.ndarray] = None
        self._steady: Optional[np.ndarray] = None
        #: number of eigenbasis steps taken (observability)
        self.steps = 0
        self.set_node_temperatures(node_temps_c)

    # -- state transfer ------------------------------------------------------

    def set_node_temperatures(self, node_temps_c: np.ndarray) -> None:
        """Re-project an absolute node temperature vector into the state."""
        node_temps_c = np.asarray(node_temps_c, dtype=float)
        if node_temps_c.shape != (self.dynamics.model.n_nodes,):
            raise ValueError(
                f"expected {self.dynamics.model.n_nodes} node temperatures, "
                f"got shape {node_temps_c.shape}"
            )
        self._coeffs = self.dynamics.eigenvectors_inv @ (
            node_temps_c - self.ambient_c
        )
        self._core_cache = None
        self._node_cache = node_temps_c.copy()
        self._node_cache.flags.writeable = False

    @classmethod
    def from_coefficients(
        cls,
        dynamics: ThermalDynamics,
        ambient_c: float,
        coefficients: np.ndarray,
        steps: int = 0,
    ) -> "SpectralThermalState":
        """Build a state directly from eigen-coefficients (no re-projection).

        The bit-exact transfer path: :meth:`BatchedSpectralState.detach
        <repro.thermal.batched_state.BatchedSpectralState.detach>` hands a
        cell's coefficient row straight back to a scalar state without a
        temperature round-trip, so the detached state continues the exact
        same trajectory byte for byte.
        """
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (dynamics.model.n_nodes,):
            raise ValueError(
                f"expected {dynamics.model.n_nodes} coefficients, "
                f"got shape {coefficients.shape}"
            )
        state = cls.__new__(cls)
        state.dynamics = dynamics
        state.ambient_c = float(ambient_c)
        state._n_cores = dynamics.model.n_cores
        state._coeffs = coefficients.copy()
        state._core_cache = None
        state._node_cache = None
        state._power = state._steady = None
        state.steps = int(steps)
        return state

    @property
    def coefficients(self) -> np.ndarray:
        """The current eigen-coefficients (read-only view; one per node).

        A frozen (``writeable=False``) view like the lazy projections — not
        a fresh copy — so hot-loop readers pay nothing and accidental
        in-place edits fail loudly instead of corrupting the state.
        """
        view = self._coeffs.view()
        view.flags.writeable = False
        return view

    # -- stepping ------------------------------------------------------------

    def step(self, core_power_w: np.ndarray, tau_s: float) -> None:
        """Advance the state by ``tau_s`` under constant core power.

        Exact for piecewise-constant power (the same Eq. 4 as the dense
        path), evaluated entirely in the eigenbasis.  Handed the same
        frozen power array (:func:`is_frozen`) as the last step, as the
        engine's reused sample of a repeated interval is, it reuses that
        step's steady coefficients.
        """
        if core_power_w is not self._power:
            self._steady = self.dynamics.steady_coeffs(core_power_w)
            self._power = core_power_w if is_frozen(core_power_w) else None
        steady = self._steady
        decay = self.dynamics.decay_vector(tau_s)
        self._coeffs = steady + decay * (self._coeffs - steady)
        self._core_cache = None
        self._node_cache = None
        self.steps += 1

    # -- lazy projections ----------------------------------------------------

    def core_temperatures(self) -> np.ndarray:
        """Current core temperatures [degC] (projected lazily, cached)."""
        if self._core_cache is None:
            v_core = self.dynamics.eigenvectors[: self._n_cores]
            self._core_cache = self.ambient_c + v_core @ self._coeffs
            # the cached array is shared with every reader until the next
            # step; freeze it so an accidental in-place edit cannot corrupt
            # later reads
            self._core_cache.flags.writeable = False
        return self._core_cache

    def node_temperatures(self) -> np.ndarray:
        """Full node temperature vector [degC] (projected lazily, cached)."""
        if self._node_cache is None:
            self._node_cache = (
                self.ambient_c + self.dynamics.eigenvectors @ self._coeffs
            )
            self._node_cache.flags.writeable = False
        return self._node_cache
