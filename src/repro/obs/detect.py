"""Thermal-violation detection: a registry of detectors over trace records.

A :class:`Detector` consumes :class:`~repro.obs.trace.TraceRecord`\\ s — one
at a time, in time order — and produces structured :class:`Violation`
records.  The same detector instance works

- **offline**, over a saved trace: :func:`run_detectors`;
- **online**, during a run: interval/epoch records can be fed by any trace
  sink, and event-driven detectors attach straight to the engine's event
  log via :func:`event_callback` and
  :meth:`repro.sim.events.EventLog.subscribe`.

Shipped detectors (create a standard set with :func:`default_detectors`):

===========================  ==================================================
:class:`ThresholdDetector`    a core temperature exceeded ``T_DTM``
:class:`BoundDetector`        the observed temperature exceeded the analytic
                              ``T_peak`` bound of Algorithm 1
:class:`DtmThrashDetector`    too many DTM engage/release transitions on one
                              core within a sliding window
:class:`RotationStallDetector`  rotation was declared but epoch boundaries
                              stopped advancing
:class:`PowerMapDetector`     power-map/placement inconsistency: an idle core
                              drawing active power or a placed core drawing
                              less than idle power
:class:`UnsafeDegradationDetector`  the graceful-degradation contract of
                              ``repro.faults`` was not honoured: a sensor
                              dropout left the scheduler in ``normal`` mode
                              past the grace window, or temperatures crossed
                              ``T_DTM`` while already degraded
:class:`SloLatencyViolationDetector`  a tenant's request-latency error
                              budget ran out (serve layer; fed latencies,
                              not trace records)
:class:`SpanOrphanDetector`   a finished span references a parent that is
                              not in the span set — broken context
                              propagation or ring-buffer eviction
===========================  ==================================================

Exceedance detectors emit one violation per *episode* (entering the bad
state), not one per interval, so a sustained excursion reads as a single
finding located at its onset.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence

from .. import units
from .slo import SloTarget, SloTracker
from .spans import SpanRecord
from .trace import (
    EpochRecord,
    EventRecord,
    IntervalRecord,
    TraceRecord,
    TraceRecorder,
    event_to_record,
)

#: Floating-point slack for time comparisons [s].
_TIME_EPS = 1e-12


@dataclass(frozen=True)
class Violation:
    """One detected anomaly, locatable in time (and usually on a core)."""

    detector: str
    time_s: float
    severity: str  # "warning" or "critical"
    message: str
    core: Optional[int] = None
    #: the observed value that tripped the detector.
    value: Optional[float] = None
    #: the limit it was compared against.
    limit: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serializable, ``None`` fields omitted)."""
        data: Dict[str, object] = {
            "detector": self.detector,
            "time_s": self.time_s,
            "severity": self.severity,
            "message": self.message,
        }
        if self.core is not None:
            data["core"] = self.core
        if self.value is not None:
            data["value"] = self.value
        if self.limit is not None:
            data["limit"] = self.limit
        return data


class Detector:
    """Base detector: dispatches records, accumulates violations."""

    name = "detector"

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def observe(self, record: TraceRecord) -> None:
        """Feed one trace record (in time order)."""
        if isinstance(record, IntervalRecord):
            self.on_interval(record)
        elif isinstance(record, EpochRecord):
            self.on_epoch(record)
        elif isinstance(record, EventRecord):
            self.on_event(record)
        else:
            raise TypeError(f"not a trace record: {type(record)}")

    def on_interval(self, record: IntervalRecord) -> None:
        """Hook: one simulated interval."""

    def on_epoch(self, record: EpochRecord) -> None:
        """Hook: one rotation-epoch boundary."""

    def on_event(self, record: EventRecord) -> None:
        """Hook: one simulation event."""

    def finish(self, end_time_s: float) -> None:
        """Hook: the trace ended at ``end_time_s`` (flush pending state)."""

    def emit(
        self,
        time_s: float,
        message: str,
        severity: str = "critical",
        core: Optional[int] = None,
        value: Optional[float] = None,
        limit: Optional[float] = None,
    ) -> Violation:
        """Record one violation (subclass convenience)."""
        violation = Violation(
            detector=self.name,
            time_s=float(time_s),
            severity=severity,
            message=message,
            core=core,
            value=value,
            limit=limit,
        )
        self.violations.append(violation)
        return violation


class _ExceedanceDetector(Detector):
    """Shared per-core episode logic: emit once when a core goes bad."""

    def __init__(self) -> None:
        super().__init__()
        self._in_episode: Dict[int, bool] = {}

    def _check_cores(
        self,
        record: IntervalRecord,
        values: Sequence[float],
        limit: float,
        what: str,
    ) -> None:
        for core, value in enumerate(values):
            bad = value > limit
            if bad and not self._in_episode.get(core, False):
                self.emit(
                    record.time_s,
                    f"core {core} {what}: {value:.2f} > {limit:.2f}",
                    core=core,
                    value=float(value),
                    limit=float(limit),
                )
            self._in_episode[core] = bad


class ThresholdDetector(_ExceedanceDetector):
    """A core temperature exceeded the DTM threshold ``T_DTM``."""

    name = "thermal-threshold"

    def __init__(self, limit_c: float, tolerance_c: float = 0.0) -> None:
        super().__init__()
        self.limit_c = float(limit_c)
        self.tolerance_c = float(tolerance_c)

    def on_interval(self, record: IntervalRecord) -> None:
        self._check_cores(
            record,
            record.temps_c,
            self.limit_c + self.tolerance_c,
            "exceeded the DTM threshold",
        )


class BoundDetector(_ExceedanceDetector):
    """A core temperature exceeded the analytic ``T_peak`` bound.

    The bound itself comes from Algorithm 1
    (:func:`repro.obs.analyze.compare_peak_to_bound` computes it from a
    trace plus a platform calculator); the detector takes the resulting
    number so it stays usable online, where the bound is known up front.
    """

    name = "analytic-bound"

    def __init__(self, bound_c: float, tolerance_c: float = 0.0) -> None:
        super().__init__()
        self.bound_c = float(bound_c)
        self.tolerance_c = float(tolerance_c)

    def on_interval(self, record: IntervalRecord) -> None:
        self._check_cores(
            record,
            record.temps_c,
            self.bound_c + self.tolerance_c,
            "exceeded the analytic T_peak bound",
        )


class DtmThrashDetector(Detector):
    """Too many DTM throttle transitions on one core within a window.

    Counts ``DtmEngaged``/``DtmReleased`` events per core over a sliding
    ``window_s``; more than ``max_transitions`` of them is thrash — the
    control loop is oscillating instead of settling.
    """

    name = "dtm-thrash"

    def __init__(
        self, window_s: float = units.ms(10.0), max_transitions: int = 6
    ) -> None:
        super().__init__()
        if window_s <= 0:
            raise ValueError("thrash window must be positive")
        self.window_s = float(window_s)
        self.max_transitions = int(max_transitions)
        self._times: Dict[int, Deque[float]] = {}
        self._alerted: Dict[int, bool] = {}

    def on_event(self, record: EventRecord) -> None:
        if record.event not in ("DtmEngaged", "DtmReleased"):
            return
        core = int(record.data["core"])
        queue = self._times.setdefault(core, deque())
        queue.append(record.time_s)
        while queue and queue[0] < record.time_s - self.window_s:
            queue.popleft()
        if len(queue) > self.max_transitions:
            if not self._alerted.get(core, False):
                self.emit(
                    record.time_s,
                    f"core {core} DTM thrash: {len(queue)} throttle "
                    f"transitions within {self.window_s * 1e3:.1f} ms",
                    severity="warning",
                    core=core,
                    value=float(len(queue)),
                    limit=float(self.max_transitions),
                )
            self._alerted[core] = True
        else:
            self._alerted[core] = False


class RotationStallDetector(Detector):
    """Rotation was declared but epoch boundaries stopped advancing.

    Once an epoch boundary with period ``tau`` has been seen, the next
    boundary is due within ``stall_factor * tau``; an interval that still
    places threads beyond that deadline means the rotation stalled (and the
    hot cores stopped trading places).  Fires once per stall.
    """

    name = "rotation-stall"

    def __init__(self, stall_factor: float = 3.0) -> None:
        super().__init__()
        if stall_factor <= 1.0:
            raise ValueError("stall factor must exceed 1")
        self.stall_factor = float(stall_factor)
        self._last_boundary_s: Optional[float] = None
        self._tau_s: Optional[float] = None
        self._stalled = False

    def on_epoch(self, record: EpochRecord) -> None:
        self._last_boundary_s = record.time_s
        self._tau_s = record.tau_s
        self._stalled = False

    def on_interval(self, record: IntervalRecord) -> None:
        if self._tau_s is None or self._stalled or not record.placements:
            return
        deadline = self._last_boundary_s + self.stall_factor * self._tau_s
        if record.time_s > deadline + _TIME_EPS:
            self._stalled = True
            self.emit(
                record.time_s,
                f"rotation stalled: no epoch boundary for "
                f"{(record.time_s - self._last_boundary_s) * 1e3:.2f} ms "
                f"(tau = {self._tau_s * 1e3:.2f} ms)",
                severity="warning",
                value=record.time_s - self._last_boundary_s,
                limit=self.stall_factor * self._tau_s,
            )


class PowerMapDetector(Detector):
    """Power-map/placement inconsistency.

    Every core without a placed thread must draw (close to) idle power, and
    every core with a placed thread must draw at least idle power — anything
    else means the power map and the placement map disagree about who is
    running where.
    """

    name = "power-map"

    def __init__(self, idle_power_w: float, tolerance_w: float = 1e-6) -> None:
        super().__init__()
        self.idle_power_w = float(idle_power_w)
        self.tolerance_w = float(tolerance_w)

    def on_interval(self, record: IntervalRecord) -> None:
        placed = set(record.placements.values())
        for core, power in enumerate(record.power_w):
            if core in placed:
                if power < self.idle_power_w - self.tolerance_w:
                    self.emit(
                        record.time_s,
                        f"core {core} has a placed thread but draws "
                        f"{power:.3f} W < idle {self.idle_power_w:.3f} W",
                        core=core,
                        value=float(power),
                        limit=self.idle_power_w,
                    )
            elif power > self.idle_power_w + self.tolerance_w:
                self.emit(
                    record.time_s,
                    f"core {core} is unplaced but draws {power:.3f} W "
                    f"> idle {self.idle_power_w:.3f} W",
                    core=core,
                    value=float(power),
                    limit=self.idle_power_w,
                )


class UnsafeDegradationDetector(_ExceedanceDetector):
    """The graceful-degradation contract was not honoured under faults.

    Watches the fault/degradation events of ``repro.faults``
    (``docs/faults.md``) and fires in two situations:

    - **warning** — a ``SensorFaultInjected`` dropout occurred while the
      scheduler reported ``normal`` mode, and no ``DegradationChanged``
      to ``degraded``/``safe-park`` followed within ``grace_s``: the
      scheduler kept trusting stale readings;
    - **critical** — an interval's ground-truth temperature exceeded
      ``dtm_threshold_c + tolerance_c`` *while* the scheduler was already
      in a degraded mode: degradation fired but did not keep the chip
      safe (episode-based, once per excursion).

    On a fault-free trace neither pattern can occur and the detector is
    silent, so :func:`default_detectors` includes it unconditionally.
    """

    name = "faults-unsafe-degradation"

    def __init__(
        self,
        dtm_threshold_c: float = 70.0,
        tolerance_c: float = 0.5,
        grace_s: float = units.ms(3.0),
    ) -> None:
        super().__init__()
        self.dtm_threshold_c = float(dtm_threshold_c)
        self.tolerance_c = float(tolerance_c)
        if grace_s <= 0:
            raise ValueError("grace window must be positive")
        self.grace_s = float(grace_s)
        self._mode = "normal"
        self._pending_dropout_s: Optional[float] = None

    def _check_grace(self, now_s: float) -> None:
        if (
            self._pending_dropout_s is not None
            and self._mode == "normal"
            and now_s > self._pending_dropout_s + self.grace_s + _TIME_EPS
        ):
            self.emit(
                self._pending_dropout_s,
                f"sensor dropout at {self._pending_dropout_s * 1e3:.2f} ms "
                f"not followed by degradation within "
                f"{self.grace_s * 1e3:.1f} ms",
                severity="warning",
                value=now_s - self._pending_dropout_s,
                limit=self.grace_s,
            )
            self._pending_dropout_s = None

    def on_event(self, record: EventRecord) -> None:
        self._check_grace(record.time_s)
        if record.event == "SensorFaultInjected":
            if (
                record.data.get("kind") == "dropout"
                and self._mode == "normal"
                and self._pending_dropout_s is None
            ):
                self._pending_dropout_s = record.time_s
        elif record.event == "DegradationChanged":
            self._mode = str(record.data["new_mode"])
            if self._mode != "normal":
                self._pending_dropout_s = None

    def on_interval(self, record: IntervalRecord) -> None:
        self._check_grace(record.time_s)
        if self._mode == "normal":
            # reset episode state so a later degraded excursion re-fires
            self._in_episode.clear()
            return
        self._check_cores(
            record,
            record.temps_c,
            self.dtm_threshold_c + self.tolerance_c,
            f"exceeded T_DTM while scheduler was {self._mode}",
        )

    def finish(self, end_time_s: float) -> None:
        self._check_grace(end_time_s)


class SloLatencyViolationDetector(Detector):
    """A tenant's request-latency error budget ran out.

    Unlike the thermal detectors this one is fed ``(time, latency)``
    observations by the serve layer (:meth:`observe_latency`), not trace
    records.  It wraps an :class:`~repro.obs.slo.SloTracker` and follows
    the episode convention: it fires **exactly once** when the cumulative
    budget crosses exhaustion, then stays silent until the budget recovers
    below 1.0 (which, with cumulative accounting, requires a sustained
    run of fast requests) and is exhausted again.
    """

    name = "slo-latency-violation"

    def __init__(self, target: SloTarget, tenant: str = ""):
        super().__init__()
        self.tracker = SloTracker(target)
        self.tenant = tenant
        self._in_violation = False

    def observe_latency(self, time_s: float, latency_s: float) -> None:
        """Fold one served request into the budget; emit on exhaustion."""
        self.tracker.record(time_s, latency_s)
        if self.tracker.exhausted and not self._in_violation:
            self._in_violation = True
            who = f"tenant {self.tenant!r}" if self.tenant else "service"
            self.emit(
                time_s,
                f"{who} exhausted its latency error budget: "
                f"{self.tracker.slow}/{self.tracker.total} requests over "
                f"{self.tracker.target.latency_s * 1e3:.1f} ms "
                f"(budget {self.tracker.target.error_budget:.2%}, "
                f"burn rate {self.tracker.burn_rate(time_s):.1f}x)",
                value=self.tracker.violation_fraction,
                limit=self.tracker.target.error_budget,
            )
        elif not self.tracker.exhausted:
            self._in_violation = False


class SpanOrphanDetector(Detector):
    """A span's parent is missing from the span set.

    Orphans mean broken context propagation (a span created on the wrong
    task/context) or ring-buffer eviction of a still-referenced parent —
    either way the span tree is lying about causality, so each orphan is
    reported as a warning located at the span's start time.
    """

    name = "span-orphan"

    def check(self, spans: Sequence[SpanRecord]) -> List[Violation]:
        """Scan a span set; one warning per orphaned span."""
        ids = {span.span_id for span in spans}
        found: List[Violation] = []
        for span in sorted(spans, key=lambda s: (s.start_s, s.span_id)):
            if span.parent_id is not None and span.parent_id not in ids:
                found.append(
                    self.emit(
                        span.start_s,
                        f"span {span.span_id} ({span.name!r}, trace "
                        f"{span.trace_id}) references missing parent "
                        f"{span.parent_id}",
                        severity="warning",
                        value=float(span.span_id),
                    )
                )
        return found


def default_detectors(
    dtm_threshold_c: float = 70.0,
    idle_power_w: Optional[float] = None,
    bound_c: Optional[float] = None,
    threshold_tolerance_c: float = 0.0,
    bound_tolerance_c: float = 0.0,
    thrash_window_s: float = units.ms(10.0),
    thrash_max_transitions: int = 6,
    stall_factor: float = 3.0,
    degradation_grace_s: float = units.ms(3.0),
    degradation_tolerance_c: float = 0.5,
) -> List[Detector]:
    """The standard detector set; ``None`` parameters skip their detector.

    :class:`UnsafeDegradationDetector` is always included — it is silent
    on traces without faults, so it costs nothing outside those runs.
    """
    detectors: List[Detector] = [
        ThresholdDetector(dtm_threshold_c, threshold_tolerance_c),
        DtmThrashDetector(thrash_window_s, thrash_max_transitions),
        RotationStallDetector(stall_factor),
        UnsafeDegradationDetector(
            dtm_threshold_c, degradation_tolerance_c, degradation_grace_s
        ),
    ]
    if bound_c is not None:
        detectors.append(BoundDetector(bound_c, bound_tolerance_c))
    if idle_power_w is not None:
        detectors.append(PowerMapDetector(idle_power_w))
    return detectors


def run_detectors(
    trace: TraceRecorder, detectors: Iterable[Detector]
) -> List[Violation]:
    """Run detectors offline over a full trace; violations sorted by time."""
    detectors = list(detectors)
    end_time_s = 0.0
    for record in trace:
        end_time_s = max(end_time_s, record.time_s)
        for detector in detectors:
            detector.observe(record)
    for detector in detectors:
        detector.finish(end_time_s)
    violations = [v for d in detectors for v in d.violations]
    return sorted(violations, key=lambda v: (v.time_s, v.detector))


def event_callback(detectors: Iterable[Detector]):
    """A callable for :meth:`repro.sim.events.EventLog.subscribe`.

    Wires event-driven detectors (e.g. :class:`DtmThrashDetector`) into a
    *live* run::

        detectors = [DtmThrashDetector()]
        sim.events.subscribe(event_callback(detectors))

    Each event is serialized to the same :class:`EventRecord` shape the
    offline path sees, so online and offline detection agree.
    """
    detectors = list(detectors)

    def _on_event(event: object) -> None:
        record = event_to_record(event)
        for detector in detectors:
            detector.observe(record)

    return _on_event
