"""Steady-state thermal queries (paper Eq. 3) and derived quantities.

These helpers sit on top of :class:`~repro.thermal.rc_model.RCThermalModel`
and answer the questions schedulers ask of the steady state: what does a
power map settle to, how much uniform power is sustainable, and what is the
thermal-severity ranking of cores (used to reason about AMD rings being
"thermal-wise unconstrained" toward the die edge).
"""

from __future__ import annotations

import numpy as np

from .rc_model import RCThermalModel


def steady_core_temperatures(
    model: RCThermalModel, core_power_w: np.ndarray, ambient_c: float
) -> np.ndarray:
    """Steady-state core temperatures for a per-core power vector."""
    return model.core_temperatures(model.steady_state(core_power_w, ambient_c))


def steady_peak(
    model: RCThermalModel, core_power_w: np.ndarray, ambient_c: float
) -> float:
    """Hottest steady-state core temperature for a per-core power vector."""
    return float(np.max(steady_core_temperatures(model, core_power_w, ambient_c)))


def uniform_power_response(model: RCThermalModel) -> np.ndarray:
    """Per-core steady temperature *rise* under 1 W on every core.

    Because the model is linear, the steady rise under uniform power ``p``
    is ``p`` times this vector.  The hottest entries identify the cores that
    constrain uniform (worst-case TSP) budgets.
    """
    return model.core_temperatures(model.steady_rise(np.ones(model.n_cores)))


def sustainable_uniform_power(
    model: RCThermalModel, ambient_c: float, limit_c: float
) -> float:
    """Largest uniform per-core power whose steady peak stays at ``limit_c``.

    This is the uniform (mapping-agnostic) Thermal Safe Power of the chip.
    """
    if limit_c <= ambient_c:
        raise ValueError("thermal limit must exceed the ambient temperature")
    rise_per_watt = float(np.max(uniform_power_response(model)))
    return (limit_c - ambient_c) / rise_per_watt


def heat_distribution_matrix(model: RCThermalModel) -> np.ndarray:
    """Core-to-core steady influence matrix ``H`` (n x n).

    ``H[i, j]`` is the steady temperature rise of core ``i`` per Watt
    dissipated on core ``j``; steady core rises are ``H @ P_cores``.  This is
    the core-block of ``B^{-1}`` and is the quantity TSP-style budgeting
    operates on.
    """
    n = model.n_cores
    b_inv = np.linalg.inv(model.b_matrix)
    return b_inv[:n, :n]
