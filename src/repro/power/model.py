"""Core power model.

Power of a core executing a thread decomposes into

- **dynamic** power, scaling with frequency and the square of the supply
  voltage (``P_dyn = P_ref * (f/f_ref) * (V/V_ref)^2 * activity``), where
  ``activity`` is the fraction of cycles the pipeline does useful work
  (memory-stalled cycles burn only a fraction of active power), and
- **static/leakage** power, scaling with voltage and (optionally)
  temperature.

An idle core (no thread, clock-gated) burns the paper's 0.3 W (Section VI).
The reference dynamic power of each thread comes from its benchmark profile
(:mod:`repro.workload.benchmarks`) and is quoted at 4 GHz / V_max / full
activity.

The paper's analytic machinery treats power as temperature-independent; the
leakage-temperature coefficient therefore defaults to zero and is exposed
for ablation studies only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DvfsConfig, ThermalConfig


@dataclass(frozen=True)
class PowerModelParams:
    """Tunables of the power model."""

    #: Fraction of full dynamic power burned during a memory-stall cycle
    #: (clock still toggles, datapath mostly quiet).
    stall_power_fraction: float = 0.3
    #: Fraction of the idle power that is leakage (scales with voltage);
    #: the rest is clock/uncore and treated as constant.
    idle_leakage_fraction: float = 0.5
    #: Leakage growth per Kelvin above the reference temperature.  Zero by
    #: default (see module docstring).
    leakage_temp_coefficient: float = 0.0
    #: Reference temperature for the leakage model [degC].
    leakage_ref_temp_c: float = 45.0


class PowerModel:
    """Maps (thread activity, frequency, temperature) to core power."""

    def __init__(
        self,
        dvfs: DvfsConfig = None,
        thermal: ThermalConfig = None,
        params: PowerModelParams = None,
    ):
        self.dvfs = dvfs if dvfs is not None else DvfsConfig()
        self.thermal = thermal if thermal is not None else ThermalConfig()
        self.params = params if params is not None else PowerModelParams()

    # -- building blocks ------------------------------------------------------

    def dynamic_power_w(
        self, p_dyn_ref_w: float, f_hz: float, activity: float = 1.0
    ) -> float:
        """Dynamic power at frequency ``f_hz`` for a thread whose profile
        quotes ``p_dyn_ref_w`` at f_max/V_max/full activity."""
        if not (0.0 <= activity <= 1.0):
            raise ValueError("activity must be within [0, 1]")
        v = self.dvfs.voltage(f_hz)
        f_scale = f_hz / self.dvfs.f_max_hz
        v_scale = (v / self.dvfs.v_max) ** 2
        return p_dyn_ref_w * f_scale * v_scale * activity

    def leakage_factor(self, temp_c: float) -> float:
        """Multiplier on leakage power at temperature ``temp_c``."""
        coeff = self.params.leakage_temp_coefficient
        return 1.0 + coeff * (temp_c - self.params.leakage_ref_temp_c)

    def idle_power_w(self, f_hz: float = None, temp_c: float = None) -> float:
        """Power of a core with no thread (clock-gated).

        At nominal voltage and reference temperature this is exactly the
        configured idle power (0.3 W in the paper's setup).
        """
        leak = self.thermal.idle_power_w * self.params.idle_leakage_fraction
        fixed = self.thermal.idle_power_w - leak
        v_scale = 1.0
        if f_hz is not None:
            v_scale = self.dvfs.voltage(f_hz) / self.dvfs.v_max
        t_scale = 1.0 if temp_c is None else self.leakage_factor(temp_c)
        return fixed + leak * v_scale * t_scale

    # -- full core power -------------------------------------------------------

    def core_power_w(
        self,
        p_dyn_ref_w: float,
        f_hz: float,
        compute_fraction: float,
        stall_fraction: float = 0.0,
        temp_c: float = None,
    ) -> float:
        """Power of a core running a thread.

        ``compute_fraction`` and ``stall_fraction`` are the shares of wall
        time the thread spends computing and stalled on memory; the
        remainder is architectural idleness (e.g. a slave thread waiting at
        a barrier).  They must not sum above 1.
        """
        if compute_fraction < 0 or stall_fraction < 0:
            raise ValueError("time fractions must be non-negative")
        if compute_fraction + stall_fraction > 1.0 + 1e-9:
            raise ValueError("compute + stall fractions exceed 1")
        activity = (
            compute_fraction + self.params.stall_power_fraction * stall_fraction
        )
        dyn = self.dynamic_power_w(p_dyn_ref_w, f_hz, min(activity, 1.0))
        return dyn + self.idle_power_w(f_hz, temp_c)

    def core_power_array(
        self,
        dynamic_w: np.ndarray,
        idle_w: np.ndarray,
        compute_fraction: np.ndarray,
        stall_fraction: np.ndarray,
    ) -> np.ndarray:
        """:meth:`core_power_w` for many threads at once (``temp_c=None``).

        The frequency-dependent factors come in precomputed per thread:
        ``dynamic_w = dynamic_power_w(p_dyn_ref_w, f_hz, 1.0)`` and
        ``idle_w = idle_power_w(f_hz)``.  The range checks are the same,
        and each element sees the same floating-point operations in the
        same order, so every entry equals the scalar call bit for bit.
        """
        valid = (
            (compute_fraction >= 0)
            & (stall_fraction >= 0)
            & (compute_fraction + stall_fraction <= 1.0 + 1e-9)
        )
        if np.count_nonzero(valid) != valid.size:
            # the first failing check of the scalar path names the error
            # (NaN fails no comparison there until the activity check)
            if np.count_nonzero(compute_fraction < 0) or np.count_nonzero(
                stall_fraction < 0
            ):
                raise ValueError("time fractions must be non-negative")
            if np.count_nonzero(compute_fraction + stall_fraction > 1.0 + 1e-9):
                raise ValueError("compute + stall fractions exceed 1")
            raise ValueError("activity must be within [0, 1]")
        # valid fractions keep the activity within [0, 1 + 1e-9] before
        # the clamp, so the scalar path's activity check cannot fail
        activity = np.minimum(
            compute_fraction + self.params.stall_power_fraction * stall_fraction,
            1.0,
        )
        return dynamic_w * activity + idle_w

    def max_core_power_w(self, p_dyn_ref_w: float) -> float:
        """Peak power of a thread: full activity at f_max."""
        return self.core_power_w(p_dyn_ref_w, self.dvfs.f_max_hz, 1.0)
