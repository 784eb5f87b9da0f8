"""``python -m repro.obs`` — analytics CLI over saved run artifacts.

Operates on the files the library already writes — trace and span
record files (``TraceRecorder.write_jsonl`` / ``JsonlTraceSink`` /
``SpanTracer``, all read through one :mod:`repro.records` reader),
metrics-snapshot JSON (``MetricsRegistry.save``) and result JSON
(``repro.io.save_result``):

- ``summarize <trace.jsonl>`` — derived statistics of one run (thermal
  stress, DTM duty cycle, migrations, rotation adherence, analytic bound);
- ``check <trace.jsonl>`` — run the violation detectors; exit status 1
  when anything fires (the CI gate);
- ``diff <a> <b>`` — compare two runs' snapshots or analyses with
  configurable tolerances; exit status 1 on drift (the regression gate);
- ``export <artifact>`` — render OpenMetrics or a self-contained HTML
  report;
- ``spans {summarize,slowest,export} <spans.jsonl>`` — analytics over
  request-span JSONL written by :class:`~repro.obs.spans.SpanTracer`:
  per-name duration statistics, the slowest traces, or a trace-waterfall
  HTML export.

``--config {table1,motivational,small_test}`` names the platform the trace
was recorded on; it unlocks everything that needs platform knowledge (the
AMD-ring breakdown, the DTM threshold and idle power, and the analytic
``T_peak`` bound of Algorithm 1).  The obs *library* stays strictly below
``repro.sim``; this CLI is the one driver that reaches across the layers,
and imports them lazily.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import records
from .._cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    main_with_exit,
    print_json,
    run_cli,
)
from .analyze import RunAnalysis, analysis_to_flat, analyze
from .detect import (
    BoundDetector,
    PowerMapDetector,
    Violation,
    default_detectors,
    run_detectors,
)
from .export import to_openmetrics, write_html_report, write_trace_waterfall
from .spans import DECODERS as SPAN_DECODERS, SpanRecord
from .trace import DECODERS as TRACE_DECODERS, KIND_OF, TraceRecorder

#: Drift patterns ``diff`` skips unless ``--no-default-ignores``: wall-clock
#: latency histograms are real measurements and never reproduce.
DEFAULT_DIFF_IGNORES = (r"latency_s",)

_CONFIG_NAMES = ("table1", "motivational", "small_test")


class _Platform:
    """Lazily built platform knowledge for one named configuration."""

    def __init__(self, name: str):
        from .. import config as _config

        self.config = getattr(_config, name)()
        self._calculator = None

    @property
    def threshold_c(self) -> float:
        return self.config.thermal.dtm_threshold_c

    @property
    def idle_power_w(self) -> float:
        return self.config.thermal.idle_power_w

    def ring_of(self, core: int) -> int:
        from ..arch.amd import AmdRings
        from ..arch.topology import Mesh

        if not hasattr(self, "_rings"):
            self._rings = AmdRings(
                Mesh(self.config.mesh_width, self.config.mesh_height)
            )
        return self._rings.ring_of(core)

    def peak_fn(self):
        """Algorithm 1 as a ``(power_seq, tau) -> T_peak`` callable."""
        if self._calculator is None:
            from ..core.peak_temperature import PeakTemperatureCalculator
            from ..thermal.calibrate import calibrated_model
            from ..thermal.matex import ThermalDynamics

            dynamics = ThermalDynamics(calibrated_model(self.config))
            self._calculator = PeakTemperatureCalculator(
                dynamics, self.config.thermal.ambient_c
            )
        calculator = self._calculator
        return lambda seq, tau: calculator.peak(seq, tau, within_epoch_samples=4)


_DECODERS = {**TRACE_DECODERS, **SPAN_DECODERS}
_KIND_OF = {**KIND_OF, SpanRecord: "span"}


def _load_records(path: str, kind: str) -> List[Any]:
    """The records of an obs record file, which must hold ``kind`` records."""
    loaded = records.load(path, _DECODERS)
    found = sorted({_KIND_OF[type(record)] for record in loaded})
    if kind not in found:
        raise SystemExit(
            f"error: {path} holds no {kind} records "
            f"(found: {', '.join(found) or 'no records'})"
        )
    return loaded


def _load_trace(path: str) -> TraceRecorder:
    trace = TraceRecorder()
    trace.records = _load_records(path, "interval")
    return trace


def _build_analysis(args: argparse.Namespace, trace: TraceRecorder) -> RunAnalysis:
    platform = _Platform(args.config) if args.config else None
    limit_c = (
        args.threshold
        if args.threshold is not None
        else (platform.threshold_c if platform else 70.0)
    )
    return analyze(
        trace,
        limit_c=limit_c,
        ring_of=platform.ring_of if platform else None,
        peak_fn=platform.peak_fn() if platform else None,
        delta=getattr(args, "delta", None),
        bound_tolerance_c=getattr(args, "bound_tolerance", 0.0),
    )


# -- summarize -----------------------------------------------------------------


def _cmd_summarize(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    analysis = _build_analysis(args, trace)
    flat = analysis_to_flat(analysis)
    if args.json:
        print_json(flat)
        return EXIT_OK
    from ..experiments.reporting import render_metrics_table

    thermal = analysis.thermal
    print(
        f"trace {args.trace}: {thermal.duration_s * 1e3:.2f} ms simulated, "
        f"{len(trace.intervals())} intervals, "
        f"{len(trace.epochs())} epoch boundaries, {len(trace.events())} events"
    )
    print(
        f"peak {thermal.peak_c:.2f} C on core {thermal.peak_core} at "
        f"{thermal.peak_time_s * 1e3:.2f} ms "
        f"(limit {thermal.limit_c:.1f} C); "
        f"DTM duty cycle {analysis.dtm.duty_cycle:.2%}, "
        f"thrash {analysis.dtm.thrash_rate_hz:.1f} transitions/s"
    )
    if analysis.rotation is not None:
        rotation = analysis.rotation
        print(
            f"rotation: {rotation.epochs} boundaries, final tau "
            f"{rotation.final_tau_s * 1e3:.2f} ms, max period deviation "
            f"{rotation.max_deviation:.2%}"
        )
    if analysis.bound is not None:
        bound = analysis.bound
        verdict = "EXCEEDED" if bound.exceeded else "held"
        print(
            f"analytic T_peak bound (Algorithm 1, delta={bound.delta}): "
            f"{bound.analytic_peak_c:.2f} C — {verdict}, margin "
            f"{bound.margin_c:+.2f} C"
        )
    print()
    print(render_metrics_table(flat, title="derived statistics"))
    return EXIT_OK


# -- check ---------------------------------------------------------------------


def _check_violations(
    args: argparse.Namespace, trace: TraceRecorder
) -> Tuple[List[Violation], Optional[RunAnalysis]]:
    platform = _Platform(args.config) if args.config else None
    threshold_c = (
        args.threshold
        if args.threshold is not None
        else (platform.threshold_c if platform else 70.0)
    )
    detectors = default_detectors(
        dtm_threshold_c=threshold_c,
        threshold_tolerance_c=args.threshold_tolerance,
        thrash_window_s=args.thrash_window,
        thrash_max_transitions=args.thrash_max,
        stall_factor=args.stall_factor,
    )
    analysis: Optional[RunAnalysis] = None
    if platform is not None:
        detectors.append(PowerMapDetector(platform.idle_power_w))
        analysis = _build_analysis(args, trace)
        if analysis.bound is not None:
            detectors.append(
                BoundDetector(
                    analysis.bound.analytic_peak_c,
                    tolerance_c=args.bound_tolerance,
                )
            )
    elif args.bound_c is not None:
        detectors.append(BoundDetector(args.bound_c, args.bound_tolerance))
    return run_detectors(trace, detectors), analysis


def _cmd_check(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    violations, _ = _check_violations(args, trace)
    if args.json:
        print_json([v.to_dict() for v in violations])
    else:
        from ..experiments.reporting import render_violations_table

        print(render_violations_table(violations, title=f"check {args.trace}"))
    return EXIT_FINDINGS if violations else EXIT_OK


# -- diff ----------------------------------------------------------------------


def _load_flat(path: str, args: argparse.Namespace) -> Dict[str, float]:
    """A flat ``name -> float`` view of any supported artifact."""
    if path.endswith(".jsonl"):
        return analysis_to_flat(_build_analysis(args, _load_trace(path)))
    from ..io import load_metrics_snapshot

    return load_metrics_snapshot(path)


def _cmd_diff(args: argparse.Namespace) -> int:
    flat_a = _load_flat(args.a, args)
    flat_b = _load_flat(args.b, args)
    patterns = [] if args.no_default_ignores else list(DEFAULT_DIFF_IGNORES)
    patterns.extend(args.ignore)
    compiled = [re.compile(p) for p in patterns]

    def ignored(name: str) -> bool:
        return any(p.search(name) for p in compiled)

    drifts: List[Tuple[str, Optional[float], Optional[float]]] = []
    for name in sorted(set(flat_a) | set(flat_b)):
        if ignored(name):
            continue
        if name not in flat_a or name not in flat_b:
            drifts.append((name, flat_a.get(name), flat_b.get(name)))
            continue
        a, b = flat_a[name], flat_b[name]
        allowed = args.tolerance + args.rel_tolerance * max(abs(a), abs(b))
        if abs(a - b) > allowed:
            drifts.append((name, a, b))
    if args.json:
        print_json(
            [{"metric": name, "a": a, "b": b} for name, a, b in drifts]
        )
    elif drifts:
        from ..experiments.reporting import render_table

        rows = [
            [
                name,
                "(missing)" if a is None else f"{a:g}",
                "(missing)" if b is None else f"{b:g}",
                "" if a is None or b is None else f"{b - a:+g}",
            ]
            for name, a, b in drifts
        ]
        print(
            render_table(
                ["metric", args.a, args.b, "delta"],
                rows,
                title=f"{len(drifts)} drifting metrics",
            )
        )
    else:
        print(
            f"no drift: {len([n for n in flat_a if not ignored(n)])} compared "
            f"metrics within tolerance "
            f"(abs {args.tolerance:g}, rel {args.rel_tolerance:g})"
        )
    return EXIT_FINDINGS if drifts else EXIT_OK


# -- export --------------------------------------------------------------------


def _cmd_export(args: argparse.Namespace) -> int:
    out = Path(args.output)
    if args.format == "openmetrics":
        if args.input.endswith(".jsonl"):
            flat = analysis_to_flat(_build_analysis(args, _load_trace(args.input)))
        else:
            from ..io import load_metrics_snapshot

            flat = load_metrics_snapshot(args.input)
        out.write_text(to_openmetrics(flat, prefix=args.prefix))
    else:  # html
        if not args.input.endswith(".jsonl"):
            raise SystemExit("error: HTML export needs a trace (.jsonl) input")
        trace = _load_trace(args.input)
        analysis = _build_analysis(args, trace)
        violations, _ = _check_violations(args, trace)
        write_html_report(
            out,
            trace,
            analysis,
            violations,
            title=args.title or f"Run report: {Path(args.input).name}",
        )
    print(f"wrote {out} ({out.stat().st_size} bytes)")
    return EXIT_OK


# -- spans ---------------------------------------------------------------------


def _load_spans(path: str) -> List[SpanRecord]:
    return [r for r in _load_records(path, "span") if isinstance(r, SpanRecord)]


def _trace_bounds(spans: Sequence[SpanRecord]) -> Tuple[float, float]:
    return (
        min(s.start_s for s in spans),
        max(s.end_s for s in spans),
    )


def _cmd_spans_summarize(args: argparse.Namespace) -> int:
    spans = _load_spans(args.spans)
    by_name: Dict[str, List[float]] = {}
    traces: Dict[int, List[SpanRecord]] = {}
    errors = 0
    for span in spans:
        by_name.setdefault(span.name, []).append(span.duration_s)
        traces.setdefault(span.trace_id, []).append(span)
        if not span.status.startswith("ok"):
            errors += 1
    if args.json:
        print_json(
            {
                "spans": len(spans),
                "traces": len(traces),
                "errors": errors,
                "by_name": {
                    name: {
                        "count": len(durations),
                        "total_s": sum(durations),
                        "mean_s": sum(durations) / len(durations),
                        "max_s": max(durations),
                    }
                    for name, durations in sorted(by_name.items())
                },
            }
        )
        return EXIT_OK
    from ..experiments.reporting import render_table

    print(
        f"{args.spans}: {len(spans)} spans in {len(traces)} traces, "
        f"{errors} with error status"
    )
    rows = [
        [
            name,
            str(len(durations)),
            f"{sum(durations) * 1e3:.2f}",
            f"{sum(durations) / len(durations) * 1e3:.3f}",
            f"{max(durations) * 1e3:.3f}",
        ]
        for name, durations in sorted(
            by_name.items(), key=lambda kv: -sum(kv[1])
        )
    ]
    print(
        render_table(
            ["span", "count", "total [ms]", "mean [ms]", "max [ms]"],
            rows,
            title="span durations",
        )
    )
    return EXIT_OK


def _cmd_spans_slowest(args: argparse.Namespace) -> int:
    spans = _load_spans(args.spans)
    traces: Dict[int, List[SpanRecord]] = {}
    for span in spans:
        traces.setdefault(span.trace_id, []).append(span)
    ranked = sorted(
        traces.items(),
        key=lambda kv: -(_trace_bounds(kv[1])[1] - _trace_bounds(kv[1])[0]),
    )[: args.limit]
    if args.json:
        print_json(
            [
                {
                    "trace_id": trace_id,
                    "duration_s": _trace_bounds(ts)[1] - _trace_bounds(ts)[0],
                    "spans": len(ts),
                    "root": next(
                        (s.name for s in ts if s.parent_id is None), None
                    ),
                }
                for trace_id, ts in ranked
            ]
        )
        return EXIT_OK
    from ..experiments.reporting import render_table

    rows = []
    for trace_id, trace_spans in ranked:
        start, end = _trace_bounds(trace_spans)
        root = next(
            (s.name for s in trace_spans if s.parent_id is None), "(orphaned)"
        )
        rows.append(
            [
                str(trace_id),
                root,
                str(len(trace_spans)),
                f"{(end - start) * 1e3:.3f}",
            ]
        )
    print(
        render_table(
            ["trace", "root span", "spans", "duration [ms]"],
            rows,
            title=f"{len(ranked)} slowest traces",
        )
    )
    return EXIT_OK


def _cmd_spans_export(args: argparse.Namespace) -> int:
    spans = _load_spans(args.spans)
    out = Path(args.output)
    write_trace_waterfall(
        out,
        spans,
        title=args.title or f"Trace waterfall: {Path(args.spans).name}",
        max_traces=args.limit,
    )
    print(f"wrote {out} ({out.stat().st_size} bytes)")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _add_platform_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        choices=_CONFIG_NAMES,
        help="platform the trace was recorded on (unlocks ring breakdown, "
        "idle-power consistency and the analytic T_peak bound)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        help="thermal limit in degC (default: the config's T_DTM, or 70)",
    )
    parser.add_argument(
        "--delta",
        type=int,
        help="rotation period in epochs (default: inferred from the trace)",
    )
    parser.add_argument(
        "--bound-tolerance",
        type=float,
        default=0.0,
        help="slack in degC before the analytic bound counts as exceeded",
    )


def _add_check_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threshold-tolerance",
        type=float,
        default=0.0,
        help="slack in degC before the DTM threshold counts as exceeded",
    )
    parser.add_argument(
        "--bound-c",
        type=float,
        help="analytic bound in degC to check against (when no --config)",
    )
    parser.add_argument(
        "--thrash-window",
        type=float,
        default=10e-3,
        help="DTM thrash detection window in seconds",
    )
    parser.add_argument(
        "--thrash-max",
        type=int,
        default=6,
        help="max DTM transitions per core within the window",
    )
    parser.add_argument(
        "--stall-factor",
        type=float,
        default=3.0,
        help="epoch gap (in taus) after which rotation counts as stalled",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analytics over saved observability artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="derived statistics of one trace")
    p_sum.add_argument("trace", help="trace JSONL file")
    _add_platform_args(p_sum)
    p_sum.add_argument("--json", action="store_true", help="machine output")
    p_sum.set_defaults(func=_cmd_summarize)

    p_check = sub.add_parser("check", help="run violation detectors (exit 1 on hit)")
    p_check.add_argument("trace", help="trace JSONL file")
    _add_platform_args(p_check)
    _add_check_args(p_check)
    p_check.add_argument("--json", action="store_true", help="machine output")
    p_check.set_defaults(func=_cmd_check)

    p_diff = sub.add_parser(
        "diff", help="compare two runs' snapshots/analyses (exit 1 on drift)"
    )
    p_diff.add_argument("a", help="snapshot/result .json or trace .jsonl")
    p_diff.add_argument("b", help="snapshot/result .json or trace .jsonl")
    _add_platform_args(p_diff)
    p_diff.add_argument(
        "--tolerance", type=float, default=0.0, help="absolute tolerance"
    )
    p_diff.add_argument(
        "--rel-tolerance", type=float, default=0.0, help="relative tolerance"
    )
    p_diff.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="REGEX",
        help="skip metrics matching this pattern (repeatable)",
    )
    p_diff.add_argument(
        "--no-default-ignores",
        action="store_true",
        help=f"also compare wall-clock metrics ({', '.join(DEFAULT_DIFF_IGNORES)})",
    )
    p_diff.add_argument("--json", action="store_true", help="machine output")
    p_diff.set_defaults(func=_cmd_diff)

    p_exp = sub.add_parser(
        "export", help="render OpenMetrics or a self-contained HTML report"
    )
    p_exp.add_argument("input", help="trace .jsonl or snapshot/result .json")
    p_exp.add_argument(
        "--format",
        choices=("openmetrics", "html"),
        required=True,
        help="output format",
    )
    p_exp.add_argument("-o", "--output", required=True, help="output file")
    p_exp.add_argument(
        "--prefix", default="repro", help="OpenMetrics metric-name prefix"
    )
    p_exp.add_argument("--title", help="HTML report title")
    _add_platform_args(p_exp)
    _add_check_args(p_exp)
    p_exp.set_defaults(func=_cmd_export)

    p_spans = sub.add_parser(
        "spans", help="analytics over request-span JSONL (SpanTracer output)"
    )
    spans_sub = p_spans.add_subparsers(dest="spans_command", required=True)

    p_ss = spans_sub.add_parser(
        "summarize", help="per-span-name duration statistics"
    )
    p_ss.add_argument("spans", help="span JSONL file")
    p_ss.add_argument("--json", action="store_true", help="machine output")
    p_ss.set_defaults(func=_cmd_spans_summarize)

    p_sl = spans_sub.add_parser("slowest", help="rank traces by duration")
    p_sl.add_argument("spans", help="span JSONL file")
    p_sl.add_argument(
        "--limit", type=int, default=10, help="number of traces to show"
    )
    p_sl.add_argument("--json", action="store_true", help="machine output")
    p_sl.set_defaults(func=_cmd_spans_slowest)

    p_se = spans_sub.add_parser(
        "export", help="render a self-contained trace-waterfall HTML file"
    )
    p_se.add_argument("spans", help="span JSONL file")
    p_se.add_argument("-o", "--output", required=True, help="output HTML file")
    p_se.add_argument(
        "--limit", type=int, default=20, help="max traces in the waterfall"
    )
    p_se.add_argument("--title", help="HTML document title")
    p_se.set_defaults(func=_cmd_spans_export)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_cli(lambda: args.func(args))


if __name__ == "__main__":
    main_with_exit(main)
