"""Shared plain-text rendering for experiment reports.

Besides the generic table/bar-chart renderers and the temperature-trace
plot (:func:`render_trace`), this module renders the observability
layer's outputs: per-phase profiling summaries
(:func:`render_profile_table`) and metrics-registry snapshots
(:func:`render_metrics_table`) — see ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

# The generic table renderer lives with the shared CLI conventions so the
# ``repro.obs`` and ``repro.lint`` CLIs render identically; it is re-exported
# here because every experiment report imports it from this module.
from .._cli import render_table

__all__ = [
    "render_table",
    "render_bar_chart",
    "render_trace",
    "render_profile_table",
    "render_metrics_table",
    "render_violations_table",
]


def render_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
    title: str = "",
) -> str:
    """Render a horizontal ASCII bar chart (used in figure reports)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    lines = [title] if title else []
    if not values:
        return "\n".join(lines + ["(no data)"])
    top = max(abs(v) for v in values) or 1.0
    label_width = max(len(l) for l in labels)
    for label, value in zip(labels, values):
        bar = "#" * max(0, int(round(abs(value) / top * width)))
        lines.append(f"{label.ljust(label_width)} | {bar} {value:.2f}{unit}")
    return "\n".join(lines)


def render_trace(
    times_s: Sequence[float],
    temps_c: Sequence[Sequence[float]],
    core_ids: Optional[Sequence[int]] = None,
    width: int = 72,
    height: int = 16,
    threshold_c: Optional[float] = None,
) -> str:
    """Plain-text plot of per-core temperature series.

    ``temps_c`` has one row of core temperatures per sample time in
    ``times_s``.  ``core_ids`` selects the plotted cores (default: the
    core that reaches the highest temperature); ``threshold_c`` draws a
    horizontal ``-`` line.
    """
    times = np.asarray(times_s, dtype=float)
    if times.size == 0:
        return "(empty trace)"
    temps = np.asarray(temps_c, dtype=float)
    if core_ids is None:
        core_ids = [int(np.argmax(np.max(temps, axis=0)))]
    t_lo = float(np.min(temps[:, core_ids]))
    t_hi = float(np.max(temps[:, core_ids]))
    if threshold_c is not None:
        t_lo = min(t_lo, threshold_c)
        t_hi = max(t_hi, threshold_c)
    if t_hi - t_lo < 1e-9:
        t_hi = t_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    t_span = max(times[-1] - times[0], 1e-12)
    marks = "0123456789"
    for series_idx, core in enumerate(core_ids):
        mark = marks[series_idx % len(marks)]
        for time_s, temp in zip(times, temps[:, core]):
            x = int((time_s - times[0]) / t_span * (width - 1))
            y = int((temp - t_lo) / (t_hi - t_lo) * (height - 1))
            grid[height - 1 - y][x] = mark
    if threshold_c is not None:
        y = int((threshold_c - t_lo) / (t_hi - t_lo) * (height - 1))
        row = grid[height - 1 - y]
        for x in range(width):
            if row[x] == " ":
                row[x] = "-"
    lines = [f"{t_hi:7.2f} C |" + "".join(grid[0])]
    lines += ["          |" + "".join(row) for row in grid[1:-1]]
    lines.append(f"{t_lo:7.2f} C |" + "".join(grid[-1]))
    lines.append(
        "          +"
        + "-" * width
        + f"  t in [{times[0]*1e3:.1f}, {times[-1]*1e3:.1f}] ms"
    )
    legend = ", ".join(
        f"{marks[i % len(marks)]}=core {core}" for i, core in enumerate(core_ids)
    )
    lines.append(f"           {legend}")
    return "\n".join(lines)


def render_profile_table(
    profile: Mapping[str, Mapping[str, float]], title: str = "phase profile"
) -> str:
    """Render a :class:`repro.obs.PhaseProfiler` summary as a table.

    ``profile`` is the ``phase -> {count, total_s, mean_s, min_s, max_s}``
    dict stored in ``SimulationResult.profile``.
    """
    if not profile:
        return f"{title}\n(profiling disabled — no phases recorded)"
    rows = [
        [
            phase,
            int(stat["count"]),
            f"{stat['total_s'] * 1e3:.2f}",
            f"{stat['mean_s'] * 1e6:.1f}",
            f"{stat['min_s'] * 1e6:.1f}",
            f"{stat['max_s'] * 1e6:.1f}",
        ]
        for phase, stat in profile.items()
    ]
    return render_table(
        ["phase", "calls", "total ms", "mean us", "min us", "max us"],
        rows,
        title=title,
    )


def render_metrics_table(
    snapshot: Mapping[str, float], title: str = "metrics snapshot"
) -> str:
    """Render a :class:`repro.obs.MetricsRegistry` snapshot as a table."""
    if not snapshot:
        return f"{title}\n(no metrics recorded)"
    rows = [[name, f"{value:g}"] for name, value in sorted(snapshot.items())]
    return render_table(["metric", "value"], rows, title=title)


def render_violations_table(violations: Sequence, title: str = "violations") -> str:
    """Render :class:`repro.obs.Violation` records as a table.

    An empty sequence renders an explicit all-clear line, so ``check``
    output always states its verdict.
    """
    if not violations:
        return f"{title}\n(no violations detected)"
    rows = [
        [
            f"{v.time_s * 1e3:.3f}",
            v.detector,
            v.severity,
            "-" if v.core is None else str(v.core),
            v.message,
        ]
        for v in violations
    ]
    return render_table(
        ["time ms", "detector", "severity", "core", "message"], rows, title=title
    )
