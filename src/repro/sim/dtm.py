"""Hardware Dynamic Thermal Management (DTM).

The paper defines ``T_DTM`` as "the temperature at which [the] many-core
triggers the hardware-controlled DTM that crashes the many-core's operating
frequency to save it from damage" (Section V).  Mirroring HotSniper, DTM is
a per-core mechanism outside any scheduler's control: a core that crosses
the threshold is forced to the minimum frequency and stays throttled until
it has cooled ``hysteresis`` below the threshold.

DTM is the safety net both schedulers run against; the point of the paper's
analytics is to make thermally-safe decisions so DTM (and its brutal
performance cost) never fires.
"""

from __future__ import annotations

import numpy as np


class DtmController:
    """Per-core threshold throttling with hysteresis."""

    def __init__(
        self,
        n_cores: int,
        threshold_c: float,
        hysteresis_c: float,
        f_min_hz: float,
    ):
        if hysteresis_c < 0:
            raise ValueError("hysteresis must be non-negative")
        self.n_cores = n_cores
        self.threshold_c = threshold_c
        self.hysteresis_c = hysteresis_c
        self.f_min_hz = f_min_hz
        self._throttled = np.zeros(n_cores, dtype=bool)
        self._stuck = np.zeros(n_cores, dtype=bool)
        #: whether some core is throttled or stuck
        self._clamping = False
        #: number of cool->throttled transitions observed
        self.trigger_count = 0
        #: accumulated core-seconds spent throttled
        self.throttled_core_time_s = 0.0

    @property
    def throttled(self) -> np.ndarray:
        """Current per-core throttle mask (read-only, includes stuck cores)."""
        view = (self._throttled | self._stuck).view()
        view.flags.writeable = False
        return view

    def set_stuck(self, stuck_mask: np.ndarray) -> None:
        """Pin cores at ``f_min`` regardless of temperature (fault model).

        A stuck-throttled fault clamps the core exactly like a thermal
        throttle but bypasses the hysteresis state machine: it neither
        counts as a DTM trigger nor needs the core to cool down to clear —
        the mask is simply replaced each interval by the fault injector.
        """
        mask = np.asarray(stuck_mask, dtype=bool)
        if mask.shape != (self.n_cores,):
            raise ValueError("stuck mask has wrong shape")
        self._stuck = mask.copy()
        self._clamping = bool(self._throttled.any() or mask.any())

    def cool(self, core_temps_c: np.ndarray) -> bool:
        """Whether :meth:`update` and :meth:`apply` would change nothing:
        no core throttled or stuck and none above the threshold (a NaN
        reading fails the test), so nothing engages, releases or clamps."""
        return not self._clamping and float(core_temps_c.max()) <= self.threshold_c

    def update(self, core_temps_c: np.ndarray) -> np.ndarray:
        """Advance the hysteresis state machine; returns the throttle mask."""
        temps = np.asarray(core_temps_c, dtype=float)
        if temps.shape != (self.n_cores,):
            raise ValueError("temperature vector has wrong shape")
        newly_hot = (~self._throttled) & (temps > self.threshold_c)
        self.trigger_count += int(np.count_nonzero(newly_hot))
        cooled = self._throttled & (
            temps < self.threshold_c - self.hysteresis_c
        )
        self._throttled = (self._throttled | newly_hot) & ~cooled
        self._clamping = bool(self._throttled.any() or self._stuck.any())
        return self._throttled.copy()

    def apply(self, frequencies_hz: np.ndarray, interval_s: float) -> np.ndarray:
        """Clamp throttled cores to ``f_min`` and account throttled time."""
        freqs = np.asarray(frequencies_hz, dtype=float).copy()
        clamped = self._throttled | self._stuck
        freqs[clamped] = np.minimum(freqs[clamped], self.f_min_hz)
        self.throttled_core_time_s += float(np.count_nonzero(clamped)) * interval_s
        return freqs
