"""HotSpot-style compact RC thermal model.

This module builds the thermal network behind the paper's Eq. (1),

    A T' + B T = P + T_amb G

from a :class:`~repro.thermal.floorplan.Floorplan` and a material stack.  The
network follows the classic HotSpot methodology (Huang et al., VLSI 2006):

- one **silicon node** per core block (where power is dissipated),
- one **heat-spreader node** per core block (copper, above the TIM),
- a single lumped **heat-sink node** coupled to the ambient.

Conductances:

- lateral silicon<->silicon between edge-adjacent blocks,
- vertical silicon->spreader through the thermal interface material,
- lateral spreader<->spreader,
- vertical spreader->sink,
- sink->ambient (the only entry of ``G``).

By construction ``A`` is diagonal positive and ``B`` is symmetric positive
definite (graph Laplacian plus a strictly positive ambient leg on a connected
graph), which is exactly the structure the paper's peak-temperature proof
requires: ``C = -A^{-1}B`` is similar to a symmetric negative-definite
matrix, so its eigenvalues are real and negative.

Temperatures are handled in degrees Celsius throughout; because the model is
linear and only ever involves differences from the ambient temperature this
is exact (see :mod:`repro.units`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .. import units
from .floorplan import Floorplan


@dataclass(frozen=True)
class MaterialStack:
    """Geometric and material parameters of the die / package stack.

    Default values are textbook properties for silicon, a polymer TIM,
    a copper spreader and an aluminium tower sink.  ``vertical_scale`` and
    ``sink_r_k_per_w`` are the two calibration knobs solved for by
    :func:`repro.thermal.calibrate.calibrated_stack` so that the model
    reproduces the paper's motivational operating points.
    """

    #: silicon die thickness [m] and conductivity [W/(m K)]
    t_si_m: float = units.mm(0.5)
    k_si: float = 150.0
    #: volumetric heat capacity of silicon [J/(m^3 K)]
    vhc_si: float = 1.75e6
    #: thermal interface material thickness [m] and conductivity [W/(m K)]
    t_tim_m: float = units.um(25.0)
    k_tim: float = 5.0
    #: copper spreader thickness [m], conductivity, volumetric heat capacity
    t_sp_m: float = units.mm(2.0)
    k_cu: float = 400.0
    vhc_cu: float = 3.4e6
    #: spreader->sink interface resistivity [K m^2 / W]
    r_sp_sink_km2_per_w: float = 1.0e-6
    #: sink-to-ambient resistance, area-normalized [K m^2 / W]: the lumped
    #: resistance of a die is this value divided by the die area, so larger
    #: chips get proportionally larger sinks.
    sink_r_km2_per_w: float = 0.5e-6
    #: sink heat capacity per die area [J/(K m^2)].  Deliberately compact:
    #: sink heat capacity per die area [J/(K m^2)] (compact model: the
    #: resulting sink time constant is ~100 ms).
    sink_c_j_per_km2: float = 2.0e5
    #: The heat spreader extends beyond the die; boundary spreader blocks
    #: shed heat sideways into that overhang, which then reaches the sink.
    #: Modelled as an extra spreader->sink conductance of
    #: ``spreader_margin_factor * k_cu * t_sp`` per exposed block edge.
    #: This is what makes die-edge (high-AMD) cores run cooler than centre
    #: (low-AMD) cores — the thermal side of the paper's AMD trade-off.
    spreader_margin_factor: float = 3.0
    #: multiplier on the silicon->spreader conductance (calibration knob 1).
    #: Calibrated against the uniform-load sustainability anchor.
    vertical_scale: float = 3.5
    #: multiplier on the silicon-node heat capacity: the core block's
    #: effective thermal mass includes the metal stack, bumps and package
    #: material directly above it.  Together with the silicon->spreader
    #: conductance this sets the *core time constant* (~2.5 ms), which
    #: governs how fast a core heats during one rotation epoch and hence the
    #: ripple a 0.5 ms rotation leaves (Fig. 2c shows exactly this ripple).
    #: It also lets the chip integrate the ~15 ms phase bursts of barrier-
    #: synchronized threads — the averaging synchronous rotation exploits.
    #: Steady-state calibration anchors are independent of capacitances.
    core_thermal_mass_scale: float = 6.0
    #: multiplier on the spreader-block heat capacity.
    spreader_thermal_mass_scale: float = 1.0
    #: multiplier on the lateral (silicon-silicon and spreader-spreader)
    #: conductances (calibration knob 2).  Calibrated against the
    #: motivational single-hot-core anchor: it sets how strongly a localized
    #: hotspot spreads sideways, which the uniform-load anchor cannot see.
    lateral_scale: float = 1.0

    def with_knobs(
        self, vertical_scale: float, lateral_scale: float
    ) -> "MaterialStack":
        """Copy of this stack with the two calibration knobs replaced."""
        return replace(
            self, vertical_scale=vertical_scale, lateral_scale=lateral_scale
        )

    def sink_resistance(self, die_area_m2: float) -> float:
        """Lumped sink-to-ambient resistance [K/W] for a die of given area."""
        return self.sink_r_km2_per_w / die_area_m2

    def sink_capacitance(self, die_area_m2: float) -> float:
        """Lumped sink heat capacity [J/K] for a die of given area."""
        return self.sink_c_j_per_km2 * die_area_m2


class RCThermalModel:
    """The assembled RC network: matrices ``A``, ``B``, ``G`` plus queries.

    Node layout for an ``n``-core floorplan (``N = 2n + 1`` nodes):

    ========== =====================
    nodes      role
    ========== =====================
    0 .. n-1   silicon (cores)
    n .. 2n-1  spreader blocks
    2n         heat sink
    ========== =====================

    Use :func:`build_rc_model` to construct instances.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        capacitance: np.ndarray,
        conductance: np.ndarray,
        ambient_conductance: np.ndarray,
        stack: MaterialStack,
    ):
        self.floorplan = floorplan
        self.stack = stack
        # subclasses (e.g. the 3D-stacked model) may override the node
        # layout; validate against the effective property values
        n_nodes = self.n_nodes
        if capacitance.shape != (n_nodes,):
            raise ValueError("capacitance vector has wrong shape")
        if conductance.shape != (n_nodes, n_nodes):
            raise ValueError("conductance matrix has wrong shape")
        if ambient_conductance.shape != (n_nodes,):
            raise ValueError("ambient conductance vector has wrong shape")
        if not np.allclose(conductance, conductance.T):
            raise ValueError("conductance matrix must be symmetric")
        if np.any(capacitance <= 0):
            raise ValueError("all thermal capacitances must be positive")
        self._cap = capacitance
        self._cond = conductance
        self._g_amb = ambient_conductance
        # ``B`` is constant, so its LU factor is the design-time half of
        # every steady-state query; each query is then an O(N^2) ``getrs``
        # pair of triangular solves.  A dense solve (``gesv``) is ``getrf``
        # + ``getrs``, so the results are bit-identical to solving afresh.
        # A singular ``B`` is reported on use, as the dense solve would.
        self._lu, self._piv, info = dgetrf(conductance)
        self._singular = info > 0

    # -- structure --------------------------------------------------------

    @property
    def n_cores(self) -> int:
        """Number of cores (= silicon nodes)."""
        return self.floorplan.n_cores

    @property
    def n_nodes(self) -> int:
        """Total number of thermal nodes ``N``."""
        return 2 * self.n_cores + 1

    @property
    def sink_node(self) -> int:
        """Index of the lumped heat-sink node."""
        return 2 * self.n_cores

    def spreader_node(self, core_id: int) -> int:
        """Index of the spreader node above core ``core_id``."""
        return self.n_cores + core_id

    # -- matrices -----------------------------------------------------------

    @property
    def capacitance_vector(self) -> np.ndarray:
        """Diagonal of ``A`` (thermal capacitances, J/K). Read-only view."""
        view = self._cap.view()
        view.flags.writeable = False
        return view

    @property
    def a_matrix(self) -> np.ndarray:
        """``A``: diagonal capacitance matrix (fresh copy)."""
        return np.diag(self._cap)

    @property
    def b_matrix(self) -> np.ndarray:
        """``B``: symmetric conductance matrix (fresh copy).

        ``B = L + diag(G)`` where ``L`` is the Laplacian of inter-node
        conductances and ``G`` holds the node-to-ambient conductances.
        """
        return self._cond.copy()

    @property
    def g_vector(self) -> np.ndarray:
        """``G``: node-to-ambient conductance vector (fresh copy)."""
        return self._g_amb.copy()

    # -- power helpers -------------------------------------------------------

    def expand_power(self, core_power_w: np.ndarray) -> np.ndarray:
        """Zero-pad a per-core power vector to the full node vector ``P``.

        Only silicon nodes dissipate power; spreader and sink entries are
        zero.
        """
        core_power_w = np.asarray(core_power_w, dtype=float)
        if core_power_w.shape != (self.n_cores,):
            raise ValueError(
                f"expected {self.n_cores} core powers, got shape {core_power_w.shape}"
            )
        full = np.zeros(self.n_nodes)
        full[: self.n_cores] = core_power_w
        return full

    def core_temperatures(self, node_temps: np.ndarray) -> np.ndarray:
        """Extract the core (silicon-node) temperatures from a node vector."""
        node_temps = np.asarray(node_temps, dtype=float)
        if node_temps.shape[-1] != self.n_nodes:
            raise ValueError("temperature vector has wrong length")
        return node_temps[..., : self.n_cores]

    # -- steady state --------------------------------------------------------

    def steady_rise(self, core_power_w: np.ndarray) -> np.ndarray:
        """Steady-state node rise above ambient, ``B^{-1} P``.

        ``core_power_w`` is one per-core power vector ``(n_cores,)`` or a
        stack of them ``(k, n_cores)``; the result has the same leading
        shape with ``N`` node entries per map.  A stack is solved as one
        multi-right-hand-side ``getrs`` against the factor of ``B``.
        """
        power = np.asarray(core_power_w, dtype=float)
        if power.ndim not in (1, 2) or power.shape[-1] != self.n_cores:
            raise ValueError(
                f"expected {self.n_cores} core powers, got shape {power.shape}"
            )
        if self._singular:
            raise np.linalg.LinAlgError("Singular matrix")
        rhs = np.zeros((self.n_nodes,) + power.shape[:-1], order="F")
        rhs[: self.n_cores] = power.T
        rise, _ = dgetrs(self._lu, self._piv, rhs, overwrite_b=True)
        return rise.T

    def steady_rise_error_bound(self, core_power_w: np.ndarray) -> float:
        """Proven bound [K] on the rounding error of :meth:`steady_rise`.

        The ``getrs`` solution ``x`` of ``B x = P`` solves ``(B + dB) x = P``
        exactly with ``|dB| <= gamma_{3N} |L||U|`` (Higham, *Accuracy and
        Stability of Numerical Algorithms*, Thm. 9.4), so it is off by
        ``B^{-1} dB x``: at most ``gamma_{3N} ||B^{-1}|| || |L||U||x| ||`` in
        the max norm.  ``||B^{-1}||`` is bounded through the residual of a
        computed inverse.  ``core_power_w`` is one map or a stack; the bound
        holds for every entry of every map.  The 1 % slack covers the
        rounding of the bound's own evaluation.
        """
        rise = np.atleast_2d(self.steady_rise(core_power_w))  # (k, N)
        n_nodes = self.n_nodes
        lower = np.abs(np.tril(self._lu, -1)) + np.eye(n_nodes)
        upper = np.abs(np.triu(self._lu))
        growth = float(np.max(lower @ (upper @ np.abs(rise).T)))
        return 1.01 * gamma(3 * n_nodes) * self._inverse_norm_bound() * growth

    def _inverse_norm_bound(self) -> float:
        """Upper bound on ``||B^{-1}||_inf``.

        With ``X`` a computed inverse and ``E = I - X B``, ``B^{-1} = (I -
        E)^{-1} X``, so ``||B^{-1}|| <= ||X|| / (1 - ||E||)``; the computed
        ``E`` is off by at most ``gamma_{N+1} (|X||B| + I)``.
        """
        b = self._cond
        inverse = np.linalg.inv(b)
        identity = np.eye(self.n_nodes)
        slack = gamma(self.n_nodes + 1) * (np.abs(inverse) @ np.abs(b) + identity)
        residual = np.abs(identity - inverse @ b) + slack
        shrink = float(np.max(residual.sum(axis=1)))
        if shrink >= 1.0:
            raise np.linalg.LinAlgError("B is too ill-conditioned to bound")
        return float(np.max(np.abs(inverse).sum(axis=1))) / (1.0 - shrink)

    def steady_state(
        self, core_power_w: np.ndarray, ambient_c: float
    ) -> np.ndarray:
        """Steady-state node temperatures for constant core powers (Eq. 3).

        ``T_steady = B^{-1} P + T_amb B^{-1} G``.  Because every row of
        ``B`` sums to its ambient conductance, ``B^{-1} G = 1`` and the
        second term is exactly the ambient offset.
        """
        if np.ndim(core_power_w) != 1:
            raise ValueError(
                f"expected {self.n_cores} core powers, "
                f"got shape {np.shape(core_power_w)}"
            )
        return self.steady_rise(core_power_w) + ambient_c

    def ambient_vector(self, ambient_c: float) -> np.ndarray:
        """All-nodes-at-ambient temperature vector."""
        return np.full(self.n_nodes, float(ambient_c))


def gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``: the relative error bound of
    ``k`` chained float64 roundings, ``u`` the unit roundoff."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1.0 - ku)


def build_rc_model(
    floorplan: Floorplan, stack: Optional[MaterialStack] = None
) -> RCThermalModel:
    """Assemble the RC network for ``floorplan`` with the given ``stack``.

    See the module docstring for the network topology.  The returned model's
    ``B`` matrix is symmetric positive definite by construction.
    """
    if stack is None:
        stack = MaterialStack()
    n = floorplan.n_cores
    n_nodes = 2 * n + 1
    sink = 2 * n
    area = floorplan.core_area_m2

    cond = np.zeros((n_nodes, n_nodes))

    def couple(i: int, j: int, g: float) -> None:
        cond[i, i] += g
        cond[j, j] += g
        cond[i, j] -= g
        cond[j, i] -= g

    # lateral silicon and spreader coupling between edge-adjacent blocks:
    # square blocks => G = k * thickness (cross-section edge*t over distance
    # edge between centres).
    g_si_lat = stack.lateral_scale * stack.k_si * stack.t_si_m
    g_sp_lat = stack.lateral_scale * stack.k_cu * stack.t_sp_m
    for a, b in floorplan.lateral_pairs():
        couple(a, b, g_si_lat)
        couple(n + a, n + b, g_sp_lat)

    # vertical silicon -> spreader per core: half-silicon + TIM + half
    # spreader in series, then scaled by the calibration knob.
    r_vert = (
        stack.t_si_m / (2.0 * stack.k_si * area)
        + stack.t_tim_m / (stack.k_tim * area)
        + stack.t_sp_m / (2.0 * stack.k_cu * area)
    )
    g_vert = stack.vertical_scale / r_vert
    # spreader -> sink per core: half spreader + interface resistivity.
    r_sp_sink = stack.t_sp_m / (2.0 * stack.k_cu * area) + (
        stack.r_sp_sink_km2_per_w / area
    )
    g_sp_sink = 1.0 / r_sp_sink
    g_margin_per_edge = stack.spreader_margin_factor * stack.k_cu * stack.t_sp_m
    for core in range(n):
        couple(core, n + core, g_vert)
        couple(n + core, sink, g_sp_sink)
        exposed_edges = 4 - len(floorplan.neighbors(core))
        if exposed_edges > 0:
            couple(n + core, sink, exposed_edges * g_margin_per_edge)

    # sink -> ambient: the only ambient leg (sink size scales with the die).
    g_amb = np.zeros(n_nodes)
    g_amb[sink] = 1.0 / stack.sink_resistance(floorplan.die_area_m2)
    cond[sink, sink] += g_amb[sink]

    cap = np.empty(n_nodes)
    cap[:n] = stack.core_thermal_mass_scale * stack.vhc_si * area * stack.t_si_m
    cap[n : 2 * n] = (
        stack.spreader_thermal_mass_scale * stack.vhc_cu * area * stack.t_sp_m
    )
    cap[sink] = stack.sink_capacitance(floorplan.die_area_m2)

    return RCThermalModel(floorplan, cap, cond, g_amb, stack)
