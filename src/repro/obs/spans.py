"""Request-scoped span tracing: trace/span ids, context propagation, JSONL.

A :class:`SpanTracer` is the serving stack's answer to "where did this
request spend its time?".  It records :class:`SpanRecord`\\ s — one per
traced operation, carrying ``trace_id``/``span_id``/``parent_id``,
monotonic-clock start and duration, a status, free-form attributes and
*links* to other spans (the micro-batcher's flush span links back to
every request span whose candidates it drained) — into a bounded
in-memory ring buffer, optionally streaming each finished span to a
record file (:mod:`repro.records`, kind ``span``; ``docs/observability.md``,
"Record files").

Design constraints, in the spirit of the rest of ``repro.obs``:

- **off by default, free when off** — a disabled tracer's
  :meth:`SpanTracer.span` is a no-op context manager that touches neither
  the ring buffer nor the ambient context, so untraced serving is
  byte-identical to the seed behaviour;
- **deterministic identity** — trace and span ids come from monotonic
  counters (no wall clock, no RNG), so two identical request tapes
  produce identical span topologies; only the measured durations differ
  (the module is held to the ``repro.lint`` determinism rules);
- **asyncio-correct propagation** — the ambient "current span" lives in a
  :class:`contextvars.ContextVar`, which asyncio snapshots per task, so
  concurrent requests interleaving on one event loop each see their own
  span stack.  Callbacks scheduled with ``loop.call_soon`` *inherit* the
  scheduling task's context — a span that must not be parented into an
  arbitrary request (the batch flush) passes ``root=True``.

The matching analytics live next door: quantiles come from
:meth:`repro.obs.metrics.Histogram.quantile`, orphan detection from
:class:`repro.obs.detect.SpanOrphanDetector`, and ``python -m repro.obs
spans`` summarizes saved span files and ranks their slowest traces.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    ContextManager,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .. import records

PathLike = Union[str, Path]

__all__ = [
    "SpanRecord",
    "SpanTracer",
    "read_spans_jsonl",
    "span_to_json_line",
    "spans_from_jsonl",
    "spans_to_jsonl",
]

#: Ambient (trace_id, span_id) of the innermost active span, per context.
#: Module-level so nested tracer calls compose; asyncio gives every task
#: its own snapshot of this variable.
_CURRENT: ContextVar[Optional[Tuple[int, int]]] = ContextVar(
    "repro_obs_current_span", default=None
)

#: Default ring-buffer capacity (finished spans retained in memory).
DEFAULT_CAPACITY = 4096


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: identity, timing, status, attributes, links."""

    trace_id: int
    span_id: int
    #: parent span within the same trace; ``None`` for root spans.
    parent_id: Optional[int]
    name: str
    #: monotonic-clock start (``time.perf_counter`` domain, comparable
    #: only within one process run).
    start_s: float
    duration_s: float
    status: str = "ok"
    #: free-form JSON-serializable annotations.
    attrs: Dict[str, object] = field(default_factory=dict)
    #: span ids this span is causally linked to (e.g. a batch flush span
    #: links every request span it served); not parent/child edges.
    links: Tuple[int, ...] = ()

    @property
    def end_s(self) -> float:
        """Monotonic-clock end of the span."""
        return self.start_s + self.duration_s


def span_to_json_line(record: SpanRecord) -> str:
    """One span as its canonical record line (no trailing newline)."""
    return records.encode("span", vars(record))


#: Record-file decoder of the ``span`` kind.
DECODERS = {"span": records.dataclass_decoder(SpanRecord)}


def spans_to_jsonl(spans: Iterable[SpanRecord]) -> str:
    """Spans as a whole record file (lossless round-trip)."""
    return records.dumps(("span", vars(span)) for span in spans)


def spans_from_jsonl(text: str) -> List[SpanRecord]:
    """Rebuild span records from :func:`spans_to_jsonl` output."""
    return records.loads(text, DECODERS)


def read_spans_jsonl(path: PathLike) -> List[SpanRecord]:
    """Read a span file (whole, or streamed by a tracer's sink)."""
    return records.load(path, DECODERS)


class _ActiveSpan:
    """Handle yielded by :meth:`SpanTracer.span` while the span is open."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "attrs", "links")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attrs: Dict[str, object],
        links: Tuple[int, ...],
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.links = links

    def annotate(self, **attrs: object) -> None:
        """Attach attributes to the span before it closes."""
        self.attrs.update(attrs)

    def add_link(self, span_id: int) -> None:
        """Causally link another span (order preserved, duplicates kept)."""
        self.links = self.links + (int(span_id),)


class _NoopSpan:
    """The handle a disabled tracer yields: every operation is free.

    It is its own (re-entrant, shared) context manager so the disabled
    fast path costs one ``enabled`` check and a constant return — no
    generator or frame is created per call.
    """

    __slots__ = ()
    trace_id = None
    span_id = None
    parent_id = None
    name = ""

    def annotate(self, **attrs: object) -> None:
        """Discard attributes (tracer disabled)."""

    def add_link(self, span_id: int) -> None:
        """Discard the link (tracer disabled)."""

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class SpanTracer:
    """Bounded in-memory span collector with optional JSONL streaming.

    ``enabled=False`` (the default) makes every method a cheap no-op:
    no ids are drawn, no context is touched, nothing is stored.
    """

    def __init__(
        self,
        enabled: bool = False,
        capacity: int = DEFAULT_CAPACITY,
        sink_path: Optional[PathLike] = None,
    ):
        if capacity < 1:
            raise ValueError("span ring-buffer capacity must be at least 1")
        self.enabled = bool(enabled)
        self.capacity = int(capacity)
        #: finished spans, oldest evicted first once ``capacity`` is hit.
        self.records: Deque[SpanRecord] = deque(maxlen=self.capacity)
        #: spans evicted from the ring buffer (they may still be on disk).
        self.dropped = 0
        #: spans finished over the tracer's lifetime (ring + evicted).
        self.finished = 0
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._sink = (
            records.RecordWriter(sink_path) if sink_path is not None else None
        )

    # -- recording ----------------------------------------------------------

    def span(
        self,
        name: str,
        root: bool = False,
        links: Sequence[int] = (),
        **attrs: object,
    ) -> ContextManager[Union[_ActiveSpan, _NoopSpan]]:
        """Open a span around a ``with`` block.

        The new span becomes the ambient parent for anything opened inside
        the block (also across ``await``).  ``root=True`` forces a fresh
        trace even when an ambient span exists — required for work whose
        scheduling context belongs to an unrelated request, like the
        micro-batcher's flush callback.  An exception escaping the block
        marks the span ``error:<ExceptionName>`` and propagates.

        When the tracer is disabled this returns a shared no-op context
        manager without allocating anything (the "free when off" gate in
        ``benchmarks/test_obs_overhead.py``).
        """
        if not self.enabled:
            return _NOOP_SPAN
        return self._record_span(name, root, links, attrs)

    @contextmanager
    def _record_span(
        self,
        name: str,
        root: bool,
        links: Sequence[int],
        attrs: Dict[str, object],
    ) -> Iterator[_ActiveSpan]:
        parent = _CURRENT.get()
        if root or parent is None:
            trace_id = next(self._trace_ids)
            parent_id: Optional[int] = None
        else:
            trace_id, parent_id = parent
        span_id = next(self._span_ids)
        handle = _ActiveSpan(
            trace_id, span_id, parent_id, name, dict(attrs),
            tuple(int(s) for s in links),
        )
        token = _CURRENT.set((trace_id, span_id))
        status = "ok"
        start = time.perf_counter()
        try:
            yield handle
        except BaseException as exc:
            status = f"error:{type(exc).__name__}"
            raise
        finally:
            duration = time.perf_counter() - start
            _CURRENT.reset(token)
            self._store(
                SpanRecord(
                    trace_id=trace_id,
                    span_id=span_id,
                    parent_id=parent_id,
                    name=name,
                    start_s=start,
                    duration_s=duration,
                    status=status,
                    attrs=handle.attrs,
                    links=handle.links,
                )
            )

    def current_span_id(self) -> Optional[int]:
        """Span id of the ambient span (``None`` when disabled or idle)."""
        if not self.enabled:
            return None
        context = _CURRENT.get()
        return context[1] if context is not None else None

    def current_trace_id(self) -> Optional[int]:
        """Trace id of the ambient span (``None`` when disabled or idle)."""
        if not self.enabled:
            return None
        context = _CURRENT.get()
        return context[0] if context is not None else None

    def record_phases(
        self, summary: Mapping[str, Mapping[str, float]]
    ) -> None:
        """Attach a :meth:`~repro.obs.profiling.PhaseProfiler.summary` as
        child spans of the ambient span.

        Each profiled phase becomes one synthetic span named
        ``phase.<name>`` whose duration is the phase's *total* wall time
        and whose attributes carry the call count and mean; the spans are
        back-dated so they end "now" inside their parent.  No-op when the
        tracer is disabled or no span is ambient.
        """
        if not self.enabled:
            return
        context = _CURRENT.get()
        if context is None:
            return
        trace_id, parent_id = context
        now = time.perf_counter()
        for phase, stats in summary.items():
            total_s = float(stats.get("total_s", 0.0))
            self._store(
                SpanRecord(
                    trace_id=trace_id,
                    span_id=next(self._span_ids),
                    parent_id=parent_id,
                    name=f"phase.{phase}",
                    start_s=now - total_s,
                    duration_s=total_s,
                    attrs={
                        "count": float(stats.get("count", 0.0)),
                        "mean_s": float(stats.get("mean_s", 0.0)),
                    },
                )
            )

    def _store(self, record: SpanRecord) -> None:
        if len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append(record)
        self.finished += 1
        if self._sink is not None:
            self._sink.write("span", vars(record))

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self.records)

    def spans(self, name: str = "") -> List[SpanRecord]:
        """Buffered spans in finish order, optionally filtered by name."""
        return [r for r in self.records if not name or r.name == name]

    def traces(self) -> Dict[int, List[SpanRecord]]:
        """Buffered spans grouped by trace id (insertion-ordered)."""
        grouped: Dict[int, List[SpanRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.trace_id, []).append(record)
        return grouped

    def stats(self) -> Dict[str, float]:
        """Flat counters for the metrics registry (``serve.spans.*``)."""
        return {
            "spans.enabled": float(self.enabled),
            "spans.buffered": float(len(self.records)),
            "spans.finished": float(self.finished),
            "spans.dropped": float(self.dropped),
        }

    def clear(self) -> None:
        """Drop buffered spans (counters keep running)."""
        self.records.clear()

    # -- record files --------------------------------------------------------

    def to_jsonl(self) -> str:
        """The buffered spans as a whole record file."""
        return spans_to_jsonl(self.records)

    def write_jsonl(self, path: PathLike) -> None:
        """Write the buffered spans to ``path`` atomically
        (:func:`repro.records.atomic_write`)."""
        records.atomic_write(path, self.to_jsonl())

    def flush(self) -> None:
        """Push streamed lines to the OS (no-op without a sink)."""
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        """Flush and close the streaming sink (ring buffer stays usable)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "SpanTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"SpanTracer({state}, {len(self.records)}/{self.capacity} "
            f"buffered, {self.dropped} dropped)"
        )
