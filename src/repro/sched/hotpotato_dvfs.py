"""HotPotato unified with DVFS (the paper's announced future work).

Section VII: "We plan to unify synchronous task rotation with DVFS for even
more efficient thermal management."  This scheduler implements the natural
unification: rotation remains the primary knob (placement and rotation
interval chosen exactly as HotPotato does), but when the analytic peak of
the best achievable rotation still exceeds the threshold — the overload
regime where vanilla HotPotato must fall back on hardware DTM — a *uniform
frequency scale* is applied to every thread such that the analytically
predicted peak lands at ``T_DTM - Delta``.

Because the RC model is linear in power, the required power scale is simply
``(T_target - T_amb) / (T_peak - T_amb)`` (applied to the dynamic share
above the idle floor); the per-core frequency is then the highest 100 MHz
step whose power-scaling factor ``f V(f)^2 / (f_max V_max^2)`` does not
exceed it.  Graceful frequency scaling replaces DTM's brutal
crash-to-f_min duty cycling.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim.context import PowerWindow
from .base import SchedulerDecision
from .hotpotato_runtime import HotPotatoScheduler


class HotPotatoDvfsScheduler(HotPotatoScheduler):
    """Rotation-first thermal management with a DVFS safety valve."""

    name = "hotpotato-dvfs"

    #: Re-evaluate the analytic peak at most this often [intervals]; the
    #: chosen frequency is held in between.
    _PEAK_EVAL_SPACING = 4

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._throttle_f_hz: Optional[float] = None
        self._intervals_since_eval = 0

    def _measured_power(self, window: PowerWindow) -> np.ndarray:
        """Refer the measured power back to f_max.

        HotPotato's estimates (and hence its analytic peak) stay in
        f_max-equivalent terms, so applying the throttle does not feed back
        into the placement/rotation decisions — the two knobs decouple.
        """
        measured = super()._measured_power(window)
        if self._throttle_f_hz is None:
            return measured
        idle = self.ctx.power_model.idle_power_w()
        dynamic = np.maximum(0.0, measured - idle)
        return idle + dynamic / self._power_scale(self._throttle_f_hz)

    def _power_scale(self, f_hz: float) -> float:
        """Dynamic-power scaling factor of ``f`` relative to f_max."""
        dvfs = self.ctx.config.dvfs
        return (f_hz * dvfs.voltage(f_hz) ** 2) / (
            dvfs.f_max_hz * dvfs.voltage(dvfs.f_max_hz) ** 2
        )

    def _select_throttle_frequency(self) -> Optional[float]:
        """The uniform frequency that makes the rotation thermally safe.

        Returns ``None`` when the rotation alone is already safe.
        """
        if self.hotpotato.n_threads == 0:
            return None
        thermal = self.ctx.config.thermal
        peak_c = self._synced().peak_temperature()
        target_c = thermal.dtm_threshold_c - thermal.headroom_delta_c
        if peak_c <= target_c:
            return None
        # linearity: scale the above-ambient rise down to the target
        required = (target_c - thermal.ambient_c) / (peak_c - thermal.ambient_c)
        levels = self.ctx.dvfs.levels
        for f_hz in reversed(levels):  # highest first
            if self._power_scale(f_hz) <= required:
                return f_hz
        return levels[0]

    def decide(self, now_s: float) -> SchedulerDecision:
        decision = super().decide(now_s)
        self._intervals_since_eval += 1
        if (
            self._intervals_since_eval >= self._PEAK_EVAL_SPACING
            or self._throttle_f_hz is None
        ):
            self._throttle_f_hz = self._select_throttle_frequency()
            self._intervals_since_eval = 0
        if self._throttle_f_hz is not None:
            freqs = np.asarray(decision.frequencies, dtype=float).copy()
            for core in decision.placements.values():
                freqs[core] = min(freqs[core], self._throttle_f_hz)
            decision = SchedulerDecision(
                placements=decision.placements,
                frequencies=freqs,
                waiting=decision.waiting,
                tau_s=decision.tau_s,
                annotations={"throttle_f_ghz": self._throttle_f_hz / 1e9},
            )
        return decision
