"""Streaming trace sink: append records to disk as they happen.

A :class:`JsonlTraceSink` is a drop-in :class:`~repro.obs.trace.TraceRecorder`
that streams each record to a record file (:class:`repro.records.RecordWriter`)
the moment it is recorded, instead of buffering the whole run in memory —
the difference between a bounded-memory production run and an OOM on a
long campaign.  The engine talks to the same ``record_*`` surface and calls
``flush()`` at run end; ``close()`` (or the context manager) finalizes the
file.  :meth:`TraceRecorder.read_jsonl` reads it back at any time, up to
its last complete line.

Enable through configuration with
``SystemConfig.with_observability(trace_path="run.jsonl")``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .. import records
from .trace import KIND_OF, TraceRecord, TraceRecorder

PathLike = Union[str, Path]


class JsonlTraceSink(TraceRecorder):
    """A trace recorder that streams records to a record file."""

    def __init__(self, path: PathLike) -> None:
        super().__init__()
        self.path = Path(path)
        self._writer = records.RecordWriter(self.path)

    # -- recording ----------------------------------------------------------

    def _emit(self, record: TraceRecord) -> None:
        self._writer.write(KIND_OF[type(record)], vars(record))

    def __len__(self) -> int:
        """Records written to the file."""
        return self._writer.count

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._writer.closed

    def flush(self) -> None:
        """Push buffered lines to the OS (safe to call after close)."""
        self._writer.flush()

    def close(self) -> None:
        """Flush and close the file; further recording raises."""
        self._writer.close()

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def reload(self) -> TraceRecorder:
        """Read the on-disk trace back as an in-memory recorder."""
        self.flush()
        return TraceRecorder.read_jsonl(self.path)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"JsonlTraceSink({str(self.path)!r}, {len(self)} records, "
            f"{state})"
        )
