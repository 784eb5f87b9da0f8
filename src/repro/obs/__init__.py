"""Observability: tracing, metrics, profiling — and the analysis layer.

Zero-dependency instrumentation threaded through the interval simulator's
hot loop, plus the analytics that turn its artifacts into insight (see
``docs/observability.md``):

- :class:`TraceRecorder` — typed per-interval records (placement map,
  power/temperature maps, DTM state), rotation-epoch boundaries and all
  structured simulation events, with lossless JSONL export/reload;
- :class:`JsonlTraceSink` — the streaming variant: records append to a
  JSONL file as they happen, so long runs never buffer the trace in memory;
- :class:`MetricsRegistry` — named counters, gauges and histograms
  (migrations per ring, thermal-solver cache hit rates, scheduler decision
  latency, ...), snapshotted into
  :class:`~repro.sim.metrics.SimulationResult` and exportable to CSV/JSON;
- :class:`PhaseProfiler` — wall-clock timers around engine phases, off by
  default and free when disabled;
- :class:`Observer` — the bundle of the three the engine threads through;
- :mod:`repro.obs.analyze` — per-run derived statistics (thermal stress,
  DTM duty cycle, migration rates, rotation adherence, observed peak vs the
  analytic ``T_peak`` of Algorithm 1), bundled as :class:`RunAnalysis`;
- :mod:`repro.obs.detect` — a detector registry producing structured
  :class:`Violation` records, online or offline;
- :mod:`repro.obs.export` — OpenMetrics textfile rendering (including
  histogram quantile/bucket exposition);
- :class:`SpanTracer` — off-by-default request tracing for the serve
  stack: trace/span/parent ids, monotonic durations, bounded ring buffer,
  optional JSONL sink (:mod:`repro.obs.spans`);
- :class:`SloTracker` — per-tenant latency error budgets and burn rates
  (:mod:`repro.obs.slo`), with matching detectors
  (``slo-latency-violation``, ``span-orphan``);
- ``python -m repro.obs`` — the CLI over saved artifacts: ``summarize``,
  ``check``, ``diff``, ``export``, ``spans``.

Enable via configuration (``config.obs``) or pass an observer explicitly::

    from repro import config
    from repro.obs import Observer
    from repro.sim import IntervalSimulator

    cfg = config.motivational().with_observability(trace=True, metrics=True)
    sim = IntervalSimulator(cfg, scheduler, tasks)
    result = sim.run()
    sim.observer.trace.write_jsonl("run.jsonl")
    print(result.metrics_snapshot)
"""

from .analyze import (
    BoundComparison,
    CoreThermalStats,
    DtmStats,
    MigrationStats,
    RotationStats,
    RunAnalysis,
    ThermalSummary,
    analysis_to_flat,
    analyze,
    compare_peak_to_bound,
    dtm_stats,
    infer_rotation_period,
    migration_stats,
    rotation_stats,
    thermal_stats,
)
from .detect import (
    BoundDetector,
    Detector,
    DtmThrashDetector,
    PowerMapDetector,
    RotationStallDetector,
    SloLatencyViolationDetector,
    SpanOrphanDetector,
    ThresholdDetector,
    UnsafeDegradationDetector,
    Violation,
    default_detectors,
    event_callback,
    run_detectors,
)
from .export import (
    histogram_exposition,
    openmetrics_name,
    parse_openmetrics,
    to_openmetrics,
    write_openmetrics,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .observer import Observer
from .profiling import PhaseProfiler, PhaseStat
from .sink import JsonlTraceSink
from .slo import SloTarget, SloTracker
from .spans import (
    SpanRecord,
    SpanTracer,
    read_spans_jsonl,
    span_to_json_line,
    spans_from_jsonl,
    spans_to_jsonl,
)
from .trace import (
    EpochRecord,
    EventRecord,
    IntervalRecord,
    TraceRecord,
    TraceRecorder,
    event_to_record,
)

__all__ = [
    "BoundComparison",
    "BoundDetector",
    "CoreThermalStats",
    "Counter",
    "Detector",
    "DtmStats",
    "DtmThrashDetector",
    "EpochRecord",
    "EventRecord",
    "Gauge",
    "Histogram",
    "IntervalRecord",
    "JsonlTraceSink",
    "MetricsRegistry",
    "MigrationStats",
    "Observer",
    "PhaseProfiler",
    "PhaseStat",
    "PowerMapDetector",
    "RotationStallDetector",
    "RotationStats",
    "RunAnalysis",
    "SloLatencyViolationDetector",
    "SloTarget",
    "SloTracker",
    "SpanOrphanDetector",
    "SpanRecord",
    "SpanTracer",
    "ThermalSummary",
    "ThresholdDetector",
    "TraceRecord",
    "TraceRecorder",
    "UnsafeDegradationDetector",
    "Violation",
    "analysis_to_flat",
    "analyze",
    "compare_peak_to_bound",
    "default_detectors",
    "dtm_stats",
    "event_callback",
    "event_to_record",
    "histogram_exposition",
    "infer_rotation_period",
    "migration_stats",
    "openmetrics_name",
    "parse_openmetrics",
    "read_spans_jsonl",
    "rotation_stats",
    "run_detectors",
    "span_to_json_line",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "thermal_stats",
    "to_openmetrics",
    "write_openmetrics",
]
