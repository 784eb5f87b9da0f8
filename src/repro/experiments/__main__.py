"""Command-line entry point: ``python -m repro.experiments <experiment>``."""

from __future__ import annotations

import argparse
import sys

from . import fig1, fig2, fig3, fig4a, fig4b, overhead, stacked3d, table1

_EXPERIMENTS = (
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4a",
    "fig4b",
    "overhead",
    "stacked3d",
    "all",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=_EXPERIMENTS)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale (fewer benchmarks / load points) for a fast run",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep experiments (fig4a/fig4b); "
        "results are identical to a serial run (default: 1)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="JSONL checkpoint file for the sweep experiments "
        "(fig4a/fig4b): each finished cell is persisted as it completes",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint, skip cells already recorded there; the "
        "resumed sweep is byte-identical to an uninterrupted one",
    )
    parser.add_argument(
        "--trace-path",
        metavar="PATH",
        help="JSONL arrival trace (docs/traffic.md) replayed by fig4b in "
        "place of the paper's Poisson schedule",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    if args.checkpoint and args.experiment not in ("fig4a", "fig4b"):
        parser.error("--checkpoint only applies to fig4a / fig4b")
    if args.trace_path and args.experiment != "fig4b":
        parser.error("--trace-path only applies to fig4b")

    selected = _EXPERIMENTS[:-1] if args.experiment == "all" else (args.experiment,)
    for name in selected:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        try:
            result = _run_one(
                name,
                args.quick,
                args.jobs,
                args.checkpoint,
                args.resume,
                args.trace_path,
            )
        except ValueError as exc:
            if not args.trace_path:
                raise
            # a malformed replayed trace is a usage error, not a crash
            print(f"{parser.prog}: error: {exc}", file=sys.stderr)
            return 2
        print(result.render())
    return 0


def _run_one(
    name: str,
    quick: bool,
    jobs: int = 1,
    checkpoint: str = None,
    resume: bool = False,
    trace_path: str = None,
):
    if name == "table1":
        return table1.run()
    if name == "fig1":
        return fig1.run()
    if name == "fig2":
        return fig2.run()
    if name == "fig3":
        return fig3.run()
    if name == "fig4a":
        benchmarks = ("blackscholes", "canneal") if quick else None
        return fig4a.run(
            benchmarks=benchmarks,
            jobs=jobs,
            checkpoint_path=checkpoint,
            resume=resume,
        )
    if name == "fig4b":
        rates = (10.0, 60.0, 400.0) if quick else fig4b.DEFAULT_ARRIVAL_RATES
        n_tasks = 20 if quick else 40
        return fig4b.run(
            arrival_rates_per_s=rates,
            n_tasks=n_tasks,
            jobs=jobs,
            checkpoint_path=checkpoint,
            resume=resume,
            trace_path=trace_path,
        )
    if name == "overhead":
        return overhead.run(n_repetitions=50 if quick else 200)
    if name == "stacked3d":
        return stacked3d.run()
    raise ValueError(f"unknown experiment {name!r}")


if __name__ == "__main__":
    sys.exit(main())
