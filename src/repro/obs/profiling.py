"""Lightweight wall-clock profiling hooks for engine phases.

A :class:`PhaseProfiler` accumulates, per named phase (``"scheduler.decide"``,
``"thermal.step"``, ``"power_map.build"``, ...), the call count and the
total/min/max wall-clock time.  It is built for hot loops: one
``perf_counter`` call on each side of the phase.  Profiling is off by
default (``SystemConfig.obs.profiling = False``): then no profiler is
attached and the engine skips the hooks entirely.

Use :meth:`time` as a context manager for coarse, non-hot-loop sections.
The per-run summary renders through
:func:`repro.experiments.reporting.render_profile_table`.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator


@dataclass
class PhaseStat:
    """Accumulated wall-clock statistics of one profiled phase."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, elapsed_s: float) -> None:
        """Fold one measured duration into the statistics."""
        self.count += 1
        self.total_s += elapsed_s
        self.min_s = min(self.min_s, elapsed_s)
        self.max_s = max(self.max_s, elapsed_s)

    @property
    def mean_s(self) -> float:
        """Average duration per call (0.0 when never called)."""
        return self.total_s / self.count if self.count else 0.0


class PhaseProfiler:
    """Accumulate wall-clock time per named phase."""

    def __init__(self) -> None:
        self.records: Dict[str, PhaseStat] = {}

    # -- hot-loop hooks ------------------------------------------------------

    def begin(self, phase: str) -> float:
        """Start timing ``phase``; returns the token to pass to :meth:`end`."""
        return _time.perf_counter()

    def end(self, phase: str, token: float) -> None:
        """Stop timing ``phase`` started with :meth:`begin`."""
        elapsed = _time.perf_counter() - token
        stat = self.records.get(phase)
        if stat is None:
            stat = self.records[phase] = PhaseStat()
        stat.add(elapsed)

    @contextmanager
    def time(self, phase: str) -> Iterator[None]:
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        token = self.begin(phase)
        try:
            yield
        finally:
            self.end(phase, token)

    # -- results -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict per-phase summary (sorted by total time, descending)."""
        ordered = sorted(
            self.records.items(), key=lambda kv: -kv[1].total_s
        )
        return {
            phase: {
                "count": float(stat.count),
                "total_s": stat.total_s,
                "mean_s": stat.mean_s,
                "min_s": stat.min_s if stat.count else 0.0,
                "max_s": stat.max_s,
            }
            for phase, stat in ordered
        }

    def render(self) -> str:
        """The per-run summary as an aligned plain-text table."""
        from ..experiments.reporting import render_profile_table

        return render_profile_table(self.summary())
