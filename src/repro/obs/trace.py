"""Structured per-interval trace recording with JSONL export.

The :class:`TraceRecorder` is the observability layer's answer to "what did
the engine actually do, interval by interval?".  It collects three kinds of
typed, timestamped records:

- :class:`IntervalRecord` — one per simulated interval: the placement map,
  the per-core power map and end-of-interval core temperatures, per-core
  frequencies, and the DTM throttle state;
- :class:`EpochRecord` — one per rotation-epoch boundary (schedulers that
  rotate expose their interval ``tau`` through
  :class:`~repro.sched.base.SchedulerDecision`);
- :class:`EventRecord` — a serialized mirror of every structured
  :class:`~repro.sim.events.Event` (arrivals, completions, migrations, DTM
  engage/release); the recorder subscribes to the engine's
  :class:`~repro.sim.events.EventLog`.

All records are plain-data (floats, ints, strings, dicts and tuples
thereof), so the whole trace round-trips losslessly through a record file
(:mod:`repro.records`; ``docs/observability.md``, "Record files"):
``TraceRecorder.from_jsonl(recorder.to_jsonl())`` compares equal to the
original recorder.  Python's ``json`` emits floats via ``repr`` (shortest
exact form), so no precision is lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as _dc_fields, is_dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from .. import records

PathLike = Union[str, Path]


@dataclass(frozen=True)
class IntervalRecord:
    """One simulated interval, as the engine executed it.

    ``time_s`` is the interval's *start*; temperatures are the core
    temperatures at the interval's *end* (after the exact thermal step).
    """

    time_s: float
    dt_s: float
    #: thread id -> core id for every placed thread this interval.
    placements: Dict[str, int]
    #: per-core power map [W] the thermal step integrated.
    power_w: Tuple[float, ...]
    #: per-core temperatures [degC] at the end of the interval.
    temps_c: Tuple[float, ...]
    #: per-core frequencies [Hz] after DTM clamping.
    frequencies_hz: Tuple[float, ...]
    #: ids of cores currently DTM-throttled.
    dtm_throttled: Tuple[int, ...] = ()


@dataclass(frozen=True)
class EpochRecord:
    """A rotation-epoch boundary (``tau`` as decided by the scheduler)."""

    time_s: float
    epoch: int
    tau_s: float


@dataclass(frozen=True)
class EventRecord:
    """A structured simulation event, in serialized form.

    ``event`` is the event class name (e.g. ``"ThreadMigrated"``);
    ``data`` holds the event's fields minus ``time_s``.
    """

    time_s: float
    event: str
    data: Dict[str, object] = field(default_factory=dict)


TraceRecord = Union[IntervalRecord, EpochRecord, EventRecord]

#: Record-file ``kind`` per record class.
KIND_OF = {IntervalRecord: "interval", EpochRecord: "epoch", EventRecord: "event"}


#: Record-file decoders of the three trace kinds.
DECODERS = {kind: records.dataclass_decoder(cls) for cls, kind in KIND_OF.items()}


def event_to_record(event: object) -> EventRecord:
    """Serialize a timestamped event dataclass into an :class:`EventRecord`.

    Shared by :meth:`TraceRecorder.record_event` and the online detector
    path (:func:`repro.obs.detect.event_callback`), so both see identical
    record shapes.
    """
    if not is_dataclass(event):
        raise TypeError(f"expected an event dataclass, got {type(event)}")
    data = {
        f.name: getattr(event, f.name)
        for f in _dc_fields(event)
        if f.name != "time_s"
    }
    return EventRecord(
        time_s=float(getattr(event, "time_s")),
        event=type(event).__name__,
        data=data,
    )


class TraceRecorder:
    """Append-only store of structured trace records, JSONL-serializable."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    # -- recording ----------------------------------------------------------

    def _emit(self, record: TraceRecord) -> None:
        """Store one freshly built record (subclass hook: sinks stream it)."""
        self.records.append(record)

    def record_interval(
        self,
        time_s: float,
        dt_s: float,
        placements: Mapping[str, int],
        power_w: Sequence[float],
        temps_c: Sequence[float],
        frequencies_hz: Sequence[float],
        dtm_throttled: Sequence[int] = (),
    ) -> IntervalRecord:
        """Append one interval record (values are copied and coerced)."""
        record = IntervalRecord(
            time_s=float(time_s),
            dt_s=float(dt_s),
            placements={str(t): int(c) for t, c in sorted(placements.items())},
            power_w=tuple(float(p) for p in power_w),
            temps_c=tuple(float(t) for t in temps_c),
            frequencies_hz=tuple(float(f) for f in frequencies_hz),
            dtm_throttled=tuple(int(c) for c in dtm_throttled),
        )
        self._emit(record)
        return record

    def record_epoch(self, time_s: float, epoch: int, tau_s: float) -> EpochRecord:
        """Append a rotation-epoch boundary record."""
        record = EpochRecord(float(time_s), int(epoch), float(tau_s))
        self._emit(record)
        return record

    def record_event(self, event: object) -> EventRecord:
        """Append a simulation event (EventLog subscription callback).

        Accepts any timestamped event dataclass
        (:class:`repro.sim.events.Event` subclasses); serialized generically
        so the obs layer stays free of upward dependencies.
        """
        record = event_to_record(event)
        self._emit(record)
        return record

    def flush(self) -> None:
        """Push buffered output to stable storage (no-op for the in-memory
        recorder; streaming sinks override)."""

    def close(self) -> None:
        """Release any held resources (no-op for the in-memory recorder)."""

    # -- views --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecorder):
            return NotImplemented
        return self.records == other.records

    def intervals(self) -> List[IntervalRecord]:
        """All interval records, in time order."""
        return [r for r in self.records if isinstance(r, IntervalRecord)]

    def epochs(self) -> List[EpochRecord]:
        """All rotation-epoch boundary records."""
        return [r for r in self.records if isinstance(r, EpochRecord)]

    def events(self, event: str = "") -> List[EventRecord]:
        """All event records, optionally filtered by event class name."""
        return [
            r
            for r in self.records
            if isinstance(r, EventRecord) and (not event or r.event == event)
        ]

    # -- record-file serialization -------------------------------------------

    def to_jsonl(self) -> str:
        """The trace as a whole record file (header declaring ``n``)."""
        return records.dumps(
            (KIND_OF[type(record)], vars(record)) for record in self.records
        )

    def write_jsonl(self, path: PathLike) -> None:
        """Write the trace to ``path`` as a whole record file, atomically."""
        records.atomic_write(path, self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceRecorder":
        """Rebuild a recorder from :meth:`to_jsonl` output (lossless)."""
        recorder = cls()
        recorder.records = records.loads(text, DECODERS)
        return recorder

    @classmethod
    def read_jsonl(cls, path: PathLike) -> "TraceRecorder":
        """Read a trace file (whole, or streamed by a sink)."""
        recorder = cls()
        recorder.records = records.load(path, DECODERS)
        return recorder
