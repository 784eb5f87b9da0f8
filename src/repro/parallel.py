"""Deterministic parallel execution of independent experiment cells.

The figure sweeps (``repro.experiments.fig4a`` / ``fig4b``, the ablation
drivers) are embarrassingly parallel: every (benchmark, scheduler) or
(arrival rate, scheduler) cell builds its own :class:`SimContext` and runs
an independent simulation.  This module fans those cells out over a
``ProcessPoolExecutor`` while keeping four hard guarantees:

1. **Determinism** — a cell's seed is a pure function of the experiment's
   base seed and the cell's identity (:func:`derive_seed`, SHA-256); the
   wall clock is never consulted.  A parallel sweep therefore produces
   *byte-identical* results to a serial one, which the test suite asserts.
2. **Ordered collation** — results come back keyed and in submission
   order regardless of completion order.
3. **Graceful degradation** — with ``jobs <= 1``, a single cell, or on any
   platform where process pools are unavailable (sandboxes without
   ``fork``/semaphores), the cells simply run serially in-process.
4. **Crash tolerance** (``docs/faults.md``) — a killed worker pool is
   rebuilt and its unfinished cells resubmitted, and a
   :class:`SweepCheckpoint` persists each finished cell so a killed sweep
   resumes with only its incomplete cells — byte-identical to an
   uninterrupted run.  A cell that raises is not retried: its seed is
   fixed, so a second attempt would raise the same way.

Cell functions must be module-level (picklable) callables; everything a
cell needs travels through its ``kwargs`` (an :class:`RCThermalModel`
pickles fine — each worker rebuilds the cheap eigendecomposition itself).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from . import records

__all__ = [
    "Cell",
    "SweepCheckpoint",
    "derive_seed",
    "run_cells",
]

#: How often a broken worker pool is rebuilt before degrading to serial.
_MAX_POOL_RESTARTS = 3


def derive_seed(base_seed: int, *parts: Any) -> int:
    """Deterministic 32-bit seed for one cell of a sweep.

    Hashes ``(base_seed, *parts)`` with SHA-256; ``parts`` identify the
    cell (benchmark name, arrival rate, scheduler name, ...).  The same
    inputs always yield the same seed — never derived from the wall clock
    or process identity, so serial and parallel runs, and re-runs on other
    machines, all agree.
    """
    digest = hashlib.sha256()
    digest.update(repr(int(base_seed)).encode())
    for part in parts:
        digest.update(b"\x1f")
        digest.update(repr(part).encode())
    return int.from_bytes(digest.digest()[:4], "big")


@dataclass(frozen=True)
class Cell:
    """One independent unit of a sweep.

    ``fn`` must be a module-level function (process pools pickle it);
    ``key`` names the cell in the collated result dict.
    """

    key: Hashable
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def execute(self) -> Any:
        return self.fn(**self.kwargs)


def canonical_key(key: Hashable) -> str:
    """Canonical string form of a cell key (checkpoint record identity).

    JSON with sorted object keys; tuples and lists collapse to the same
    form, so a key round-tripped through a checkpoint still matches.
    """
    return json.dumps(key, sort_keys=True)


class SweepCheckpoint:
    """Checkpoint of finished sweep cells (``docs/faults.md``).

    A record file of ``cell`` records (:mod:`repro.records`), each synced
    to disk as its cell finishes, so a SIGKILLed sweep loses at most the
    in-flight cells.  :meth:`finalize` rewrites the file whole in
    submission order: its bytes do not depend on completion order or on
    how often the sweep was interrupted.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._writer: Optional[records.RecordWriter] = None

    def load(self) -> Dict[str, Any]:
        """Encoded results by canonical key (empty if no file yet)."""
        self.close()
        if not self.path.exists():
            return {}
        return dict(records.load(self.path, {"cell": _decode_cell}))

    def append(self, key: Hashable, encoded_result: Any) -> None:
        """Durably record one finished cell (the first append re-creates the
        file holding the cells already in it, without a torn tail)."""
        if self._writer is None:
            done = self.load()
            self._writer = records.RecordWriter(
                self.path, (_cell(canon, result) for canon, result in done.items())
            )
        self._writer.write(*_cell(canonical_key(key), encoded_result))
        self._writer.sync()

    def finalize(self, ordered: Iterable[Tuple[Hashable, Any]]) -> None:
        """Atomically rewrite the checkpoint whole, in submission order."""
        self.close()
        cells = (_cell(canonical_key(key), encoded) for key, encoded in ordered)
        records.atomic_write(self.path, records.dumps(cells))

    def close(self) -> None:
        """Close the append stream (the next :meth:`append` reopens it)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None


def _cell(canon: str, result: Any) -> Tuple[str, Dict[str, Any]]:
    return "cell", {"key": canon, "result": result}


def _decode_cell(fields: Dict[str, Any]) -> Tuple[str, Any]:
    return records.typed(fields["key"], str), fields["result"]


def _identity(value: Any) -> Any:
    return value


def _run_serial(
    cells: List[Cell], on_done: Callable[[Cell, Any], Any]
) -> List[Any]:
    """Run cells in-process; ``on_done`` fires as each cell finishes.

    ``on_done`` runs at completion time — not after the whole sweep — so
    a checkpointing callback makes every finished cell durable before the
    next one starts (a SIGKILL mid-sweep loses only the in-flight cell).
    """
    return [on_done(cell, cell.execute()) for cell in cells]


def run_cells(
    cells: Iterable[Cell],
    jobs: int = 1,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    encode: Callable[[Any], Any] = _identity,
    decode: Callable[[Any], Any] = _identity,
) -> Dict[Hashable, Any]:
    """Execute ``cells`` and collate ``{cell.key: result}`` in input order.

    ``jobs`` is an ``int`` worker count (anything else raises
    ``ValueError``).  ``jobs <= 1`` (or a single cell) runs serially
    in-process.  With ``jobs > 1`` the cells are dispatched to a
    ``ProcessPoolExecutor``; if the pool cannot be created (no ``fork``
    support, sandboxed semaphores, unpicklable payload) — or breaks more
    than ``_MAX_POOL_RESTARTS`` times — the sweep falls back to the
    serial path; the results are identical either way, only the wall
    time differs.  A cell's exception propagates; it is not retried.

    ``checkpoint_path`` enables crash-tolerant sweeps: each finished
    cell's ``encode``-d result is durably appended to a
    :class:`SweepCheckpoint`, and with ``resume`` cells already present
    are not re-run.  Every result — fresh or restored — passes through
    ``decode(encode(result))``, so an interrupted-and-resumed sweep
    returns *byte-identical* values (and an identical finalized
    checkpoint file) to an uninterrupted one.  ``encode``/``decode``
    default to identity and must produce JSON-serializable payloads
    (simulation sweeps pass :func:`repro.io.result_to_dict` /
    :func:`repro.io.result_from_dict`).
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be an int worker count, got {jobs!r}")
    cells = list(cells)
    keys = [cell.key for cell in cells]
    if len(set(keys)) != len(keys):
        raise ValueError("cell keys must be unique")
    checkpoint = (
        SweepCheckpoint(checkpoint_path) if checkpoint_path is not None else None
    )
    done: Dict[str, Any] = {}
    if checkpoint is not None:
        if resume:
            done = checkpoint.load()
        elif checkpoint.path.exists():
            checkpoint.path.unlink()

    pending = [
        cell for cell in cells if canonical_key(cell.key) not in done
    ]
    fresh: Dict[str, Any] = {}

    def _record(cell: Cell, result: Any) -> Any:
        if checkpoint is None:
            return result
        encoded = encode(result)
        checkpoint.append(cell.key, encoded)
        fresh[canonical_key(cell.key)] = encoded
        # round-trip even fresh results so resumed and uninterrupted
        # sweeps return byte-identical values
        return decode(encoded)

    # _record runs per cell *at completion time* (not after the sweep), so
    # every finished cell is durably checkpointed before the next result
    # lands — the crash-tolerance contract of docs/faults.md
    try:
        if jobs <= 1 or len(pending) <= 1:
            computed = _run_serial(pending, on_done=_record)
        else:
            try:
                computed = _run_pool(pending, jobs, on_done=_record)
            except _NoPool:
                # cells recorded before the pool gave up are re-run
                # serially but re-recorded idempotently (the last write wins)
                computed = _run_serial(pending, on_done=_record)
    finally:
        if checkpoint is not None:
            checkpoint.close()

    by_key: Dict[str, Any] = {}
    for cell, result in zip(pending, computed):
        by_key[canonical_key(cell.key)] = result
    for canon, encoded in done.items():
        by_key[canon] = decode(encoded)
    if checkpoint is not None:
        stored = dict(done)
        stored.update(fresh)
        checkpoint.finalize(
            (cell.key, stored[canonical_key(cell.key)]) for cell in cells
        )
    return {cell.key: by_key[canonical_key(cell.key)] for cell in cells}


class _NoPool(Exception):
    """No process pool could start, or a cell could not be pickled."""


def _execute_pickled(payload: bytes) -> Any:
    """Worker entry point: run a cell the parent has already pickled."""
    return pickle.loads(payload).execute()


def _run_pool(
    cells: List[Cell], jobs: int, on_done: Callable[[Cell, Any], Any]
) -> List[Any]:
    """Pool execution with pool-restart recovery.

    ``on_done`` fires per cell as its future resolves (checkpoint
    durability, as in :func:`_run_serial`); already-recorded cells are
    never resubmitted after a pool restart, so it fires once per cell.
    Results are collated in submission order.  A ``BrokenProcessPool``
    (a worker died — OOM kill, SIGKILL, segfault) rebuilds the pool and
    resubmits the unfinished cells, up to ``_MAX_POOL_RESTARTS`` times;
    beyond that the remaining cells run serially.  :class:`_NoPool` is
    raised when the pool or its workers cannot start (``OSError``,
    ``NotImplementedError``) or a cell cannot be pickled; an exception
    raised by a cell itself propagates unchanged.
    """
    try:
        # pickled here, not in the pool's feeder thread, so an unpicklable
        # cell is told apart from a raising one and cannot stall shutdown
        payloads = [pickle.dumps(cell) for cell in cells]
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise _NoPool() from exc
    results: Dict[int, Any] = {}
    restarts = 0
    while len(results) < len(cells):
        outstanding = [i for i in range(len(cells)) if i not in results]
        if restarts > _MAX_POOL_RESTARTS:
            # the environment cannot keep a pool alive; finish serially
            for i in outstanding:
                results[i] = on_done(cells[i], cells[i].execute())
            break
        pool = None
        try:
            try:
                pool = ProcessPoolExecutor(max_workers=min(jobs, len(outstanding)))
                futures = {
                    i: pool.submit(_execute_pickled, payloads[i]) for i in outstanding
                }
            except (OSError, NotImplementedError) as exc:
                raise _NoPool() from exc
            for i in outstanding:
                results[i] = on_done(cells[i], futures[i].result())
        except BrokenProcessPool:
            restarts += 1
        finally:
            # a raising cell cancels the cells not yet started
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
    return [results[i] for i in range(len(cells))]
