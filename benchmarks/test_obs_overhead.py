"""Observability overhead: off vs metrics-only vs full trace + sink.

The layer's contract is "off by default, free when off" — an
uninstrumented run pays only ``is None`` checks in the hot loop.  This
benchmark times the same workload at three instrumentation levels and
gates the instrumented runs against the uninstrumented one.

The span tracer has the same contract at request granularity: a second
fixture times the serve hot path (three nested spans around a real
peak-temperature evaluation) with no tracer, a disabled tracer, and an
enabled tracer, and gates the disabled-tracer cost at <= 2% over
baseline.

Wall-clock assertions are deliberately generous (shared CI boxes are
noisy).  Precise, speed-corrected timings are ``python -m bench``'s job.
"""

import time

import pytest

from repro import config
from repro.sched import FixedRotationScheduler
from repro.sim.engine import IntervalSimulator
from repro.workload import PARSEC, Task

#: instrumentation levels: name -> with_observability kwargs.
LEVELS = {
    "off": {},
    "metrics_only": {"metrics": True},
    "full_trace_sink": {"trace": True, "metrics": True, "profiling": True},
}
SIM_TIME_S = 0.05
REPEATS = 3


def _run_once(ctx16, level_kwargs, trace_path=None):
    """Wall time of one run; the full level streams its trace to a file."""
    cfg = config.motivational()
    if level_kwargs:
        kwargs = dict(level_kwargs)
        if trace_path is not None:
            kwargs.pop("trace", None)
            kwargs["trace_path"] = str(trace_path)
        cfg = cfg.with_observability(**kwargs)
    tasks = [Task(0, PARSEC["blackscholes"], n_threads=4, seed=1)]
    sim = IntervalSimulator(cfg, FixedRotationScheduler(), tasks, ctx=ctx16)
    start = time.perf_counter()
    sim.run(max_time_s=SIM_TIME_S)
    elapsed = time.perf_counter() - start
    if sim.observer is not None:
        sim.observer.close()
    return elapsed


@pytest.fixture(scope="module")
def measurements(ctx16, tmp_path_factory):
    """Best-of-``REPEATS`` wall time per instrumentation level."""
    root = tmp_path_factory.mktemp("obs_overhead")
    timings = {}
    for name, kwargs in LEVELS.items():
        timings[name] = min(
            _run_once(
                ctx16,
                kwargs,
                root / f"stream_{repeat}.jsonl" if name == "full_trace_sink" else None,
            )
            for repeat in range(REPEATS)
        )
    return timings


TRACE_ITERATIONS = 400


def _span_workload(tracer, calculator, base):
    """The serve hot path in miniature: three nested spans per request
    around a real peak-temperature evaluation (mirrors the span tree
    ``http.<endpoint>`` -> ``batch.flush`` -> ``batch.peak_batch``).

    Power varies per request (and per repeat, via ``base``) so every
    iteration pays the full evaluation rather than a memo hit.
    """
    total = 0.0
    for index in range(TRACE_ITERATIONS):
        seq = [[1.0 + (base + index) * 1e-6] * 4]
        if tracer is None:
            total += calculator.peak_batch([seq], [None])[0]
        else:
            with tracer.span("http.peak", root=True):
                with tracer.span("batch.flush"):
                    with tracer.span("batch.peak_batch"):
                        total += calculator.peak_batch([seq], [None])[0]
    return total


@pytest.fixture(scope="module")
def span_timings():
    """Best-of-``REPEATS`` wall time of the span workload per tracer mode."""
    from repro.core.peak_temperature import PeakTemperatureCalculator
    from repro.obs.spans import SpanTracer
    from repro.thermal.calibrate import calibrated_model
    from repro.thermal.matex import ThermalDynamics

    cfg = config.SystemConfig(mesh_width=2, mesh_height=2)
    calculator = PeakTemperatureCalculator(
        ThermalDynamics(calibrated_model(cfg)), cfg.thermal.ambient_c
    )
    timings = {}
    for name, tracer_factory in (
        ("baseline", lambda: None),
        ("tracing_disabled", lambda: SpanTracer(enabled=False)),
        ("tracing_enabled", lambda: SpanTracer(enabled=True, capacity=256)),
    ):
        walls = []
        for repeat in range(REPEATS):
            tracer = tracer_factory()
            base = (len(timings) * REPEATS + repeat + 1) * TRACE_ITERATIONS
            start = time.perf_counter()
            _span_workload(tracer, calculator, base)
            walls.append(time.perf_counter() - start)
        timings[name] = min(walls)
    return timings


def test_metrics_overhead_is_bounded(measurements):
    """Metrics-only instrumentation must not blow up the hot loop.

    Generous factor: counters/gauges are dict lookups and float adds, so
    even on a noisy box 3x the uninstrumented run is far beyond any
    plausible regression-free cost.
    """
    off = measurements["off"]
    metrics = measurements["metrics_only"]
    assert metrics < off * 3.0 + 0.5


def test_full_instrumentation_overhead_is_bounded(measurements):
    """Trace + streaming sink + profiler stays within a small multiple."""
    off = measurements["off"]
    full = measurements["full_trace_sink"]
    assert full < off * 5.0 + 1.0


def test_disabled_tracing_overhead_is_bounded(span_timings):
    """The span tracer's "off by default, free when off" gate.

    A disabled :class:`SpanTracer` must cost <= 2% over the uninstrumented
    request path (its ``span()`` is a single ``enabled`` check returning a
    shared no-op).  The absolute slack term absorbs scheduler noise on
    shared CI boxes.
    """
    baseline = span_timings["baseline"]
    disabled = span_timings["tracing_disabled"]
    assert disabled <= baseline * 1.02 + 0.05


def test_enabled_tracing_overhead_is_bounded(span_timings):
    """Enabled tracing (3 spans/request, in-memory ring, no sink) stays
    within a small multiple of the bare request path."""
    baseline = span_timings["baseline"]
    enabled = span_timings["tracing_enabled"]
    assert enabled < baseline * 3.0 + 0.5
