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
4. **Crash tolerance** (``docs/faults.md``) — an optional
   :class:`RetryPolicy` re-runs failing cells with capped exponential
   backoff whose jitter is *seeded* (the retry schedule is as reproducible
   as the results); per-cell timeouts bound hung workers; a killed worker
   pool is rebuilt and its unfinished cells resubmitted; and a JSONL
   :class:`SweepCheckpoint` persists each finished cell so a killed sweep
   resumes with only its incomplete cells — byte-identical to an
   uninterrupted run.

Cell functions must be module-level (picklable) callables; everything a
cell needs travels through its ``kwargs`` (an :class:`RCThermalModel`
pickles fine — each worker rebuilds the cheap eigendecomposition itself).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time as _time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
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

__all__ = [
    "Cell",
    "CellTimeoutError",
    "RetryPolicy",
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


class CellTimeoutError(RuntimeError):
    """A cell exceeded its per-cell timeout on every allowed attempt."""


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


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry with capped exponential backoff, seeded jitter.

    A failing (or timed-out) cell is re-run up to ``retries`` extra times.
    Before attempt ``k`` the runner sleeps
    ``min(cap, base * 2**(k-1)) * jitter`` where ``jitter`` in ``[0, 1)``
    comes from :func:`derive_seed` over ``(seed, cell key, k)`` — the full
    backoff schedule is a pure function of the policy and the cell, never
    of the wall clock, so retry behaviour is reproducible in tests.
    """

    retries: int = 0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0

    def delay_s(self, key: Hashable, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of cell ``key``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        bound = min(
            self.backoff_cap_s, self.backoff_base_s * 2 ** (attempt - 1)
        )
        jitter = derive_seed(self.seed, canonical_key(key), attempt) / 2**32
        return bound * jitter


def canonical_key(key: Hashable) -> str:
    """Canonical string form of a cell key (checkpoint record identity).

    JSON with sorted object keys; tuples and lists collapse to the same
    form, so a key round-tripped through a checkpoint still matches.
    """
    return json.dumps(key, sort_keys=True)


class SweepCheckpoint:
    """JSONL checkpoint of finished sweep cells (``docs/faults.md``).

    One record per line: ``{"key": <canonical key>, "result": <encoded>}``.
    Records are appended (flushed and fsynced) as cells finish, so a
    SIGKILLed sweep loses at most the in-flight cells; a truncated final
    line — the signature of a mid-write kill — is tolerated on load, and
    every other malformed line is an error (:meth:`load`).
    :meth:`finalize` atomically rewrites the file in submission order,
    making the completed checkpoint's bytes independent of completion
    order and of how many times the sweep was interrupted.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def load(self) -> Dict[str, Any]:
        """Encoded results by canonical key (empty if no file yet).

        Only an undecodable *last* line is skipped: it is the torn tail a
        kill mid-append leaves, and it is cut from the file so the next
        append starts on a fresh line.  Any other bad line — undecodable,
        not an object, or without a string ``"key"`` and a ``"result"`` —
        raises ``ValueError("<path>:<line>: ...")``.
        """
        if not self.path.exists():
            return {}
        lines = self.path.read_bytes().splitlines(keepends=True)
        done: Dict[str, Any] = {}
        offset = 0
        for number, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    if number < len(lines):
                        raise ValueError(
                            f"{self.path}:{number}: undecodable record: {exc}"
                        ) from None
                    with self.path.open("r+b") as handle:
                        handle.truncate(offset)
                    break
                if not (
                    isinstance(record, dict)
                    and isinstance(record.get("key"), str)
                    and "result" in record
                ):
                    raise ValueError(
                        f"{self.path}:{number}: expected an object with a "
                        'string "key" and a "result"'
                    )
                done[record["key"]] = record["result"]
            offset += len(line)
        return done

    def append(self, key: Hashable, encoded_result: Any) -> None:
        """Durably record one finished cell."""
        line = json.dumps(
            {"key": canonical_key(key), "result": encoded_result},
            sort_keys=True,
        )
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def finalize(self, ordered: Iterable[Tuple[Hashable, Any]]) -> None:
        """Atomically rewrite the checkpoint in submission order.

        After this, the file's bytes are identical whether the sweep ran
        straight through or was killed and resumed any number of times.
        """
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for key, encoded in ordered:
                handle.write(
                    json.dumps(
                        {"key": canonical_key(key), "result": encoded},
                        sort_keys=True,
                    )
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(self.path)


def _identity(value: Any) -> Any:
    return value


def _run_serial_cell(cell: Cell, retry: RetryPolicy) -> Any:
    attempt = 0
    while True:
        try:
            return cell.execute()
        except Exception:
            if attempt >= retry.retries:
                raise
            attempt += 1
            _time.sleep(retry.delay_s(cell.key, attempt))


def _run_serial(
    cells: List[Cell],
    retry: RetryPolicy,
    on_done: Callable[[Cell, Any], Any],
) -> List[Any]:
    """Run cells in-process; ``on_done`` fires as each cell finishes.

    ``on_done`` runs at completion time — not after the whole sweep — so
    a checkpointing callback makes every finished cell durable before the
    next one starts (a SIGKILL mid-sweep loses only the in-flight cell).
    """
    return [on_done(cell, _run_serial_cell(cell, retry)) for cell in cells]


def _resolve_policy(jobs: int, n_pending: int) -> Tuple[str, int]:
    """Map the ``jobs`` worker count to a policy and a pool size."""
    if jobs <= 1 or n_pending <= 1:
        return "serial", 1
    return "fork", jobs


def run_cells(
    cells: Iterable[Cell],
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
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
    time differs.

    ``retry`` re-runs failing cells per :class:`RetryPolicy` (both modes);
    after the allowed attempts the cell's exception propagates.
    ``timeout_s`` bounds each cell's wall time — pool mode only (a serial
    in-process cell cannot be pre-empted); a timed-out attempt abandons
    the current pool and counts as a failed attempt, raising
    :class:`CellTimeoutError` once attempts are exhausted.

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
    retry = retry if retry is not None else RetryPolicy()
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
    policy, workers = _resolve_policy(jobs, len(pending))
    if policy == "serial":
        computed = _run_serial(pending, retry, on_done=_record)
    else:
        try:
            computed = _run_pool(
                pending, workers, retry, timeout_s, on_done=_record
            )
        except (OSError, NotImplementedError, pickle.PicklingError):
            # cells recorded before the pool died are re-run serially but
            # re-recorded idempotently (the checkpoint keeps the last write)
            computed = _run_serial(pending, retry, on_done=_record)

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


def _run_pool(
    cells: List[Cell],
    jobs: int,
    retry: RetryPolicy,
    timeout_s: Optional[float],
    on_done: Callable[[Cell, Any], Any],
) -> List[Any]:
    """Pool execution with retries, timeouts and pool-restart recovery.

    ``on_done`` fires per cell as its future resolves (checkpoint
    durability, as in :func:`_run_serial`); already-recorded cells are
    never resubmitted after a pool restart, so it fires once per cell.
    Results are collated in submission order.  A ``BrokenProcessPool``
    (a worker died — OOM kill, SIGKILL, segfault) rebuilds the pool and
    resubmits the unfinished cells, up to ``_MAX_POOL_RESTARTS`` times;
    beyond that the remaining cells run serially.  A timed-out cell also
    abandons the pool (the hung worker would otherwise keep its slot),
    counting one failed attempt for that cell only.
    """
    results: Dict[int, Any] = {}
    attempts = [0] * len(cells)
    restarts = 0
    while len(results) < len(cells):
        outstanding = [i for i in range(len(cells)) if i not in results]
        # no `with`: its __exit__ would join workers, blocking forever on a
        # hung cell after a timeout — shutdown is managed explicitly instead
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(outstanding)))
        try:
            futures = {
                i: pool.submit(cells[i].execute) for i in outstanding
            }
            for i in outstanding:
                while True:
                    try:
                        results[i] = on_done(
                            cells[i], futures[i].result(timeout=timeout_s)
                        )
                        break
                    except _FutureTimeout:
                        attempts[i] += 1
                        pool.shutdown(wait=False, cancel_futures=True)
                        if attempts[i] > retry.retries:
                            raise CellTimeoutError(
                                f"cell {cells[i].key!r} exceeded "
                                f"{timeout_s} s on every attempt"
                            ) from None
                        _time.sleep(retry.delay_s(cells[i].key, attempts[i]))
                        # the worker may be hung: abandon this pool and
                        # resubmit everything unfinished in a fresh one
                        raise _PoolAbandoned()
                    except BrokenProcessPool:
                        raise
                    except _PoolAbandoned:
                        raise
                    except Exception:
                        attempts[i] += 1
                        if attempts[i] > retry.retries:
                            pool.shutdown(wait=False, cancel_futures=True)
                            raise
                        _time.sleep(retry.delay_s(cells[i].key, attempts[i]))
                        futures[i] = pool.submit(cells[i].execute)
        except _PoolAbandoned:
            continue
        except BrokenProcessPool:
            pool.shutdown(wait=False, cancel_futures=True)
            restarts += 1
            if restarts > _MAX_POOL_RESTARTS:
                # the environment cannot keep a pool alive; finish serially
                remaining = [i for i in range(len(cells)) if i not in results]
                for i in remaining:
                    results[i] = on_done(
                        cells[i], _run_serial_cell(cells[i], retry)
                    )
            continue
        pool.shutdown(wait=True)
    return [results[i] for i in range(len(cells))]


class _PoolAbandoned(Exception):
    """Internal: restart the pool without counting a broken-pool strike."""
