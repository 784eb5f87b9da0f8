"""The one record-file format: kind-tagged JSON Lines behind a version header.

Obs traces, request spans, arrival traces and sweep checkpoints are all
written and read here, nowhere else (``docs/observability.md``, "Record
files"):

- one JSON object per line, ``{"kind": <kind>, **fields}`` with sorted
  keys; NaN and ±Infinity are refused on write and on read;
- the first line is the header ``{"kind": "header", "version": 1}``; a
  file written whole (:func:`dumps`) also declares its record count ``n``;
- a final line without its newline is a torn tail: the reader drops it,
  so a streamed file (:class:`RecordWriter`) reads back up to its last
  complete line, while a whole file comes up short of ``n`` and fails.

The reader maps each record through a ``{kind: decoder}`` table; a
decoder's ``KeyError`` or ``TypeError`` (see :func:`typed`) is a missing or
mistyped field.  Every error is ``ValueError("<source>:<line>: ...")``.
A dataclass record kind needs no hand-written decoder:
:func:`dataclass_decoder` checks each field against its annotation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import typing
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

PathLike = Union[str, Path]
#: ``(kind, fields)``: one record before encoding.
Record = Tuple[str, Mapping[str, Any]]
Decoders = Mapping[str, Callable[[Dict[str, Any]], Any]]

#: Format version in every header (and the only one the reader accepts).
VERSION = 1
#: Streamed records between pushes of the writer's buffer to the OS.
FLUSH_EVERY = 256


def payload(kind: str, fields: Mapping[str, Any]) -> Dict[str, Any]:
    """The JSON object one record is stored as."""
    return {"kind": kind, **fields}


def encode(kind: str, fields: Mapping[str, Any]) -> str:
    """One record as its canonical line, no newline (``ValueError`` if not finite)."""
    try:
        return json.dumps(payload(kind, fields), sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{kind} record is not finite JSON: {exc}") from None


def dumps(records: Iterable[Record]) -> str:
    """A whole record file as text: a header declaring ``n``, then the records."""
    lines = [encode(kind, fields) for kind, fields in records]
    header = encode("header", {"n": len(lines), "version": VERSION})
    return "\n".join([header, *lines]) + "\n"


def atomic_write(path: PathLike, text: str) -> None:
    """Replace ``path`` by ``text``: mkstemp, fsync, ``os.replace``.

    A crash leaves the old file or the whole new one, and no temporary file.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class RecordWriter:
    """Streams records to a new file at ``path``, one line per :meth:`write`.

    The file is created atomically holding the header and ``records`` (the
    records a resumed stream carries over), replacing any file there.
    Lines reach the OS every :data:`FLUSH_EVERY` records and on
    :meth:`flush`; :meth:`sync` also fsyncs them.
    """

    def __init__(self, path: PathLike, records: Iterable[Record] = ()) -> None:
        self.path = Path(path)
        lines = [encode("header", {"version": VERSION})]
        lines.extend(encode(kind, fields) for kind, fields in records)
        #: records in the file.
        self.count = len(lines) - 1
        atomic_write(self.path, "\n".join(lines) + "\n")
        self._handle: Optional[Any] = open(self.path, "a", encoding="utf-8")

    @property
    def closed(self) -> bool:
        return self._handle is None

    def write(self, kind: str, fields: Mapping[str, Any]) -> None:
        """Append one record (``ValueError`` once closed)."""
        if self._handle is None:
            raise ValueError(f"record file {self.path} is closed")
        self._handle.write(encode(kind, fields) + "\n")
        self.count += 1
        if self.count % FLUSH_EVERY == 0:
            self._handle.flush()

    def flush(self) -> None:
        """Push buffered lines to the OS (no-op once closed)."""
        if self._handle is not None:
            self._handle.flush()

    def sync(self) -> None:
        """Flush and fsync: every written record survives a crash."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def load(path: PathLike, decoders: Decoders) -> List[Any]:
    """The decoded records of the record file at ``path``."""
    return _parse(Path(path).read_bytes(), decoders, str(path))


def loads(text: str, decoders: Decoders) -> List[Any]:
    """The decoded records of record-file ``text`` (errors name ``<text>``)."""
    return _parse(text.encode("utf-8"), decoders, "<text>")


def _parse(data: bytes, decoders: Decoders, source: str) -> List[Any]:
    *lines, torn = data.split(b"\n")
    if not lines:
        raise ValueError(
            f"{source}:1: no header line (empty file, or a writer killed mid-header)"
        )
    declared = _header(_object(lines[0], f"{source}:1"), f"{source}:1")
    decoded: List[Any] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        where = f"{source}:{line_no}"
        fields = _object(raw, where)
        kind = fields.pop("kind", None)
        decoder = decoders.get(kind) if isinstance(kind, str) else None
        if decoder is None:
            raise ValueError(
                f"{where}: unknown record kind {kind!r} "
                f"(expected {', '.join(sorted(decoders))})"
            )
        try:
            decoded.append(decoder(fields))
        except (KeyError, TypeError, ValueError) as exc:
            what = "missing fields in" if isinstance(exc, KeyError) else "bad"
            raise ValueError(f"{where}: {what} {kind} record: {exc}") from None
    if declared is not None and len(decoded) != declared:
        short = "torn tail — " if len(decoded) < declared else ""
        newline = " (the last line is missing its newline)" if torn else ""
        raise ValueError(
            f"{source}:1: {short}header declares {declared} records, "
            f"found {len(decoded)}{newline}"
        )
    return decoded


def _non_finite(text: str) -> float:
    raise ValueError(f"non-finite number {text}")


def _finite(text: str) -> float:
    value = float(text)
    return value if math.isfinite(value) else _non_finite(text)


def _object(raw: bytes, where: str) -> Dict[str, Any]:
    try:
        value = json.loads(
            raw.decode("utf-8"), parse_constant=_non_finite, parse_float=_finite
        )
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{where}: undecodable record: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, found {type(value).__name__}")
    return value


def _header(fields: Dict[str, Any], where: str) -> Optional[int]:
    """Check the header line; its declared record count (or ``None``)."""
    version, declared = fields.get("version"), fields.get("n")
    if fields.get("kind") != "header":
        raise ValueError(
            f'{where}: expected a header line {{"kind": "header", "version": '
            f"{VERSION}}}, found kind {fields.get('kind')!r}"
        )
    if type(version) is not int or version != VERSION:
        raise ValueError(
            f"{where}: unsupported version {version!r} (this reader supports {VERSION})"
        )
    if declared is not None and (type(declared) is not int or declared < 0):
        raise ValueError(f"{where}: invalid record count n={declared!r}")
    return declared


def typed(value: Any, kind: type) -> Any:
    """``value`` as ``kind`` (``float``, ``int``, ``str``, ``list`` or ``dict``).

    Decoders type-check every field through this: a JSON value of another
    type raises ``TypeError`` (a float accepts an integer, never a ``bool``).
    """
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise TypeError(f"expected {kind.__name__}, found {value!r}")
    return kind(value)


def dataclass_decoder(cls: type) -> Callable[[Dict[str, Any]], Any]:
    """A decoder building dataclass ``cls``, every field typed by its annotation.

    Annotations may nest ``Optional``, ``Tuple[X, ...]``, ``Dict[str, X]`` and
    ``object`` (any JSON value) around ``float``, ``int`` and ``str``.
    """
    hints = typing.get_type_hints(cls)
    names = [field.name for field in dataclasses.fields(cls)]

    def decode(fields: Dict[str, Any]) -> Any:
        return cls(**{name: _as(fields[name], hints[name]) for name in names})

    return decode


def _as(value: Any, hint: Any) -> Any:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[X]
        return None if value is None else _as(value, args[0])
    if origin is tuple:
        return tuple(_as(item, args[0]) for item in typed(value, list))
    if origin is dict:
        return {key: _as(item, args[1]) for key, item in typed(value, dict).items()}
    return value if hint is object else typed(value, hint)
