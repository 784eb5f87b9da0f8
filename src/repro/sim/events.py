"""Structured simulation event log.

Optional (``IntervalSimulator(record_events=True)``): every noteworthy
simulation occurrence — task arrivals/completions, thread migrations, DTM
engagements — is recorded as a typed event, queryable afterwards.  Useful
for debugging scheduler behaviour and for the examples' narratives; the
metrics object carries only aggregates.

Observability integrations subscribe to the log
(:meth:`EventLog.subscribe`) to mirror events elsewhere — the
:class:`~repro.obs.trace.TraceRecorder` serializes them as ``event``
records of its trace (:func:`repro.obs.trace.event_to_record`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Type, TypeVar


@dataclass(frozen=True)
class Event:
    """Base event: a timestamped occurrence."""

    time_s: float


@dataclass(frozen=True)
class TaskArrived(Event):
    task_id: int
    benchmark: str
    n_threads: int


@dataclass(frozen=True)
class TaskCompleted(Event):
    task_id: int
    benchmark: str
    response_time_s: float


@dataclass(frozen=True)
class ThreadMigrated(Event):
    thread_id: str
    src_core: int
    dst_core: int
    penalty_s: float


@dataclass(frozen=True)
class DtmEngaged(Event):
    core: int
    temperature_c: float


@dataclass(frozen=True)
class DtmReleased(Event):
    core: int
    temperature_c: float


@dataclass(frozen=True)
class SensorFaultInjected(Event):
    """A thermal-sensor fault episode started on one core.

    ``kind`` is ``"dropout"`` (readings become NaN) or ``"stuck"`` (the
    reading latches its current value); ground truth is never affected.
    """

    core: int
    kind: str
    duration_s: float


@dataclass(frozen=True)
class PowerSpikeInjected(Event):
    """A transient ground-truth power spike started on one core."""

    core: int
    extra_power_w: float
    duration_s: float


@dataclass(frozen=True)
class CoreStuckFault(Event):
    """A core got stuck throttled at ``f_min`` regardless of temperature."""

    core: int
    duration_s: float


@dataclass(frozen=True)
class MigrationFailed(Event):
    """A planned migration hop aborted; the thread stays on ``src_core``."""

    thread_id: str
    src_core: int
    dst_core: int


@dataclass(frozen=True)
class DegradationChanged(Event):
    """A scheduler moved along the graceful-degradation ladder."""

    scheduler: str
    old_mode: str
    new_mode: str
    staleness_s: float


_E = TypeVar("_E", bound=Event)


class EventLog:
    """Append-only, time-ordered event store (with subscriber fan-out)."""

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._subscribers: List[Callable[[Event], None]] = []

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Call ``callback`` with every subsequently recorded event."""
        self._subscribers.append(callback)

    def record(self, event: Event) -> None:
        """Append an event (times must be non-decreasing)."""
        if self._events and event.time_s < self._events[-1].time_s - 1e-12:
            raise ValueError("event log times must be non-decreasing")
        self._events.append(event)
        for callback in self._subscribers:
            callback(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def of_type(self, event_type: Type[_E]) -> List[_E]:
        """All events of one type, in time order."""
        return [e for e in self._events if isinstance(e, event_type)]

    def between(self, t_start_s: float, t_end_s: float) -> List[Event]:
        """Events within ``[t_start_s, t_end_s]``."""
        return [e for e in self._events if t_start_s <= e.time_s <= t_end_s]

    def count(self, event_type: Type[Event]) -> int:
        """Number of events of one type."""
        return sum(1 for e in self._events if isinstance(e, event_type))

    def last(self, event_type: Type[_E]) -> Optional[_E]:
        """Most recent event of one type, if any."""
        for event in reversed(self._events):
            if isinstance(event, event_type):
                return event
        return None

    def render(self, limit: int = 50) -> str:
        """Human-readable dump of the first ``limit`` events."""
        lines = []
        for event in self._events[:limit]:
            name = type(event).__name__
            fields = {
                k: v for k, v in vars(event).items() if k != "time_s"
            }
            detail = ", ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(f"{event.time_s * 1e3:9.3f} ms  {name:<15s} {detail}")
        if len(self._events) > limit:
            lines.append(f"... ({len(self._events) - limit} more)")
        return "\n".join(lines) if lines else "(no events)"
