"""One sweep workload in a fresh process: ``python -m bench.worker``.

Prints one ``{"ready": ...}`` line once imports and the platform context
are built (the parent times spawn-to-ready as ``setup_s``), then, unless
``--setup-only``, runs the workload and prints one JSON result line.

The timed passes always simulate the workload's fixed paper inputs:
measured here, the host time of a pass moves by 10–20 % between input
seeds (fig4b's scheduler work follows the arrival pattern), far more than
a 10 % regression bound can absorb.  ``--seed S`` (S != 0) adds one
held-out pass on the paper seed plus S, whose simulated statistics are
printed so two commits can be compared exactly on inputs no one tuned.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

from . import peak_rss_mb
from .golden import load as load_golden
from .golden import mismatches, results_drift
from .layers import SWEEP_LAYERS, layer_metrics, memo_hit_ratio, new_timer
from .probe import SpeedProbe
from .stats import percentile

#: name -> (figure, fixed keyword arguments, paper seed).
SWEEPS: Dict[str, Tuple[str, Dict[str, Any], int]] = {
    "fig4a-closed": ("fig4a", {"benchmarks": ("blackscholes", "canneal")}, 42),
    "fig4b-light": ("fig4b", {"arrival_rates_per_s": (2.0,), "n_tasks": 10}, 7),
    "fig4b-saturated": ("fig4b", {"arrival_rates_per_s": (90.0,)}, 7),
}

MIN_PASSES = 2


def run_pass(name: str, seed: int):
    from repro.experiments import fig4a, fig4b

    figure, kwargs, _ = SWEEPS[name]
    module = fig4a if figure == "fig4a" else fig4b
    return module.run(seed=seed, **kwargs)


def cell_stats(result) -> Dict[str, Dict[str, Any]]:
    """Per (row, scheduler) cell: the statistics the golden file pins."""
    if hasattr(result, "comparisons"):
        pairs = [(name, c) for name, c in result.comparisons.items()]
    else:
        pairs = [(f"{p.arrival_rate_per_s:g}", p) for p in result.points]
    cells = {}
    for row, outcome in pairs:
        for scheduler in ("pcmig", "hotpotato"):
            sim = getattr(outcome, scheduler)
            cells[f"{row}/{scheduler}"] = {
                "makespan_s": sim.makespan_s,
                "mean_response_s": sim.mean_response_time_s,
                "migrations": sim.migration_count,
                "dtm_triggers": sim.dtm_triggers,
                "tasks": len(sim.tasks),
            }
    return cells


def accuracy(name: str, result) -> List[str]:
    """Results drift and the gap to the paper, both informational."""
    from repro.experiments import fig4a, fig4b

    # the paper's smallest fig4a gain, and its fig4b gain at medium load
    paper_gain_pct = {
        ("fig4a", "canneal"): fig4a.PAPER_CANNEAL_SPEEDUP_PCT,
        ("fig4b", "90"): fig4b.PAPER_PEAK_SPEEDUP_PCT,
    }
    figure = SWEEPS[name][0]
    rows = {}
    if figure == "fig4a":
        for row, comp in result.comparisons.items():
            rows[row] = {
                "pcmig": comp.pcmig.makespan_s * 1e3,
                "hotpotato": comp.hotpotato.makespan_s * 1e3,
                "gain": comp.speedup_pct,
            }
    elif SWEEPS[name][1].get("n_tasks", 40) == 40:
        # results/fig4b.txt rows are 40-task cells
        for point in result.points:
            rows[f"{point.arrival_rate_per_s:g}"] = {
                "pcmig": point.pcmig.mean_response_time_s * 1e3,
                "hotpotato": point.hotpotato.mean_response_time_s * 1e3,
                "gain": point.speedup_pct,
            }
    lines = results_drift(figure, rows)
    for (fig, row), paper in paper_gain_pct.items():
        if fig == figure and row in rows:
            lines.append(
                f"paper gap {figure} {row}: {rows[row]['gain'] - paper:+.2f} pp "
                f"(gain {rows[row]['gain']:+.2f} % vs paper {paper:+.2f} %)"
            )
    return lines


class IntervalClock:
    """Reads the clock once per simulated interval (untraced passes).

    Installed on ``IntervalSimulator.run`` / ``step_thermal``; each cell
    contributes the times between consecutive thermal steps, i.e. one
    engine loop iteration each.
    """

    def __init__(self):
        self.cells: List[List[float]] = []
        self._saved = []

    def install(self) -> None:
        from repro.sim.engine import IntervalSimulator

        run, step = IntervalSimulator.run, IntervalSimulator.step_thermal
        cells, clock = self.cells, time.perf_counter

        def timed_run(sim, *args, **kwargs):
            cells.append([clock()])
            return run(sim, *args, **kwargs)

        def timed_step(sim, plan):
            cells[-1].append(clock())
            return step(sim, plan)

        self._saved = [("run", run), ("step_thermal", step)]
        IntervalSimulator.run = timed_run
        IntervalSimulator.step_thermal = timed_step

    def uninstall(self) -> None:
        from repro.sim.engine import IntervalSimulator

        for attr, original in self._saved:
            setattr(IntervalSimulator, attr, original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(SWEEPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # sampling from the first line on: setup time is rescaled too
    with SpeedProbe() as probe:
        return _run(args, probe)


def _run(args, probe: SpeedProbe) -> int:
    start = time.perf_counter()
    from repro.config import table1
    from repro.experiments import fig4a, fig4b  # noqa: F401  (timed import)
    from repro.sim.context import SimContext

    imported = time.perf_counter()
    SimContext(table1())
    ready = time.perf_counter()
    print(json.dumps({"ready": True, "probe": probe.samples()}), flush=True)
    if args.setup_only:
        return 0

    name = args.workload
    paper_seed = SWEEPS[name][2]
    out: Dict[str, Any] = {
        "workload": name,
        "setup.import_s": probe.scaled(start, imported)[0],
        "setup.context_s": probe.scaled(imported, ready)[0],
        "cells": 0,
    }
    deadline = time.perf_counter() + args.seconds
    clock = IntervalClock()
    timer = new_timer()
    passes: List[Dict[str, Any]] = []
    first = None
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            timer.install(SWEEP_LAYERS)
        elif not args.trace and len(passes) < MIN_PASSES:
            clock.install()
        t0 = time.perf_counter()
        result = run_pass(name, paper_seed)
        t1 = time.perf_counter()
        timer.uninstall()
        clock.uninstall()
        host_s, raw_s = probe.scaled(t0, t1)
        passes.append({"traced": traced, "host_s": host_s, "raw_s": raw_s, "span_s": t1 - t0})
        stats = cell_stats(result)
        out["cells"] += len(stats)
        if first is None:
            first = stats
            out["accuracy"] = accuracy(name, result)
        elif stats != first:
            out["nondeterministic"] = mismatches(first, stats)
        if len(passes) == MIN_PASSES:
            # after a fixed amount of work: later passes only let the
            # allocator's footprint creep, and their number varies
            out["peak_rss_mb"] = peak_rss_mb()
        # leave room for one more pass, and for the held-out one
        reserve = (t1 - t0) * (2 if args.seed else 1)
        if len(passes) >= MIN_PASSES and t1 + reserve > deadline:
            break
    if args.seed:
        held_out = run_pass(name, paper_seed + args.seed)
        out["held_out"] = {"seed": paper_seed + args.seed, "cells": cell_stats(held_out)}
        out["cells"] += len(out["held_out"]["cells"])
    # each simulated interval's fastest of the first MIN_PASSES passes
    # (they simulate the same intervals): a preempted interval is an
    # outlier in one pass, and a fixed pass count keeps the minimum's
    # bias the same in every run
    latencies = [
        [probe.scaled(a, b)[0] * 1e3 for a, b in zip(cell[:-1], cell[1:])]
        for cell in clock.cells
    ]
    per_pass = len(latencies) // MIN_PASSES
    cells = [
        [min(samples) for samples in zip(*latencies[index::per_pass])]
        for index in range(per_pass)
    ]

    golden = load_golden().get(name, {}).get("cells")
    out["golden"] = mismatches(golden, first) if golden is not None else ["no golden entry"]
    out["stats"] = first
    out["passes"] = passes
    untraced = [p["host_s"] for p in passes if not p["traced"]]
    out["wall_s"] = statistics.median(untraced)
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        # the probe's samples land inside whichever frame they interrupt,
        # so shares are of the whole span, samples included
        traced_span = sum(p["span_s"] for p in traced_passes)
        layers = layer_metrics(timer, traced_span, len(traced_passes))
        layers["core.memo.hit_ratio"] = memo_hit_ratio(timer)
        layers["sim.intervals"] = layers["thermal.step.calls"]
        layers["sim.host_us_per_interval"] = (
            out["wall_s"] / layers["sim.intervals"] * 1e6
        )
        traced_host = statistics.median(p["host_s"] for p in traced_passes)
        layers["trace.overhead_pct"] = (traced_host / out["wall_s"] - 1.0) * 100.0
        out["layers"] = layers
    else:
        # per cell, then averaged: PCMig and HotPotato intervals form two
        # clusters, and a pooled median sits in the gap between them (it
        # moved 25 % run to run on fig4b-light)
        out["p50_ms"] = statistics.mean(percentile(cell, 50.0) for cell in cells)
        out["p95_ms"] = statistics.mean(percentile(cell, 95.0) for cell in cells)
        out["interval_samples"] = min(len(cell) for cell in cells)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
