"""Replayable JSONL arrival traces: ``arrival`` records in a whole record file.

The format is :mod:`repro.records` (``docs/observability.md``, "Record
files"; the fields in ``docs/traffic.md``).  Timestamps must be
non-negative and non-decreasing — the engine's arrival queue and the
ordering contract of :func:`repro.workload.generator.materialize` both
depend on it.  Round-trips reproduce arrival times bit-for-bit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Union

from .. import records
from ..records import typed
from ..workload.benchmarks import parsec_profile
from ..workload.generator import TaskSpec
from ..workload.qos import QosSpec

PathLike = Union[str, Path]


def write_arrival_trace(path: PathLike, specs: Sequence[TaskSpec]) -> None:
    """Write a spec list as an arrival trace (sorted by arrival), atomically."""
    ordered = sorted(specs, key=lambda s: s.arrival_time_s)
    lines = []
    for spec in ordered:
        fields: Dict[str, Any] = {
            "benchmark": spec.profile.name,
            "n_threads": spec.n_threads,
            "seed": spec.seed,
            "time_s": spec.arrival_time_s,
            "work_scale": spec.work_scale,
        }
        if spec.qos is not None:
            fields["qos"] = spec.qos.to_dict()
        lines.append(("arrival", fields))
    records.atomic_write(path, records.dumps(lines))


def _arrival_decoder() -> Callable[[Dict[str, Any]], TaskSpec]:
    """A decoder for one file's ``arrival`` records (tracks monotonicity)."""
    previous = [0.0]

    def decode(fields: Dict[str, Any]) -> TaskSpec:
        time_s = typed(fields["time_s"], float)
        if time_s < 0:
            raise ValueError(f"negative timestamp {time_s!r}")
        if time_s < previous[0]:
            raise ValueError(
                f"non-monotonic timestamp: {time_s!r} after {previous[0]!r}"
            )
        previous[0] = time_s
        n_threads = typed(fields["n_threads"], int)
        if n_threads < 1:
            raise ValueError(f"invalid thread count {n_threads}")
        qos = None
        if fields.get("qos") is not None:
            try:
                qos = QosSpec.from_dict(typed(fields["qos"], dict))
            except (TypeError, ValueError) as error:
                raise ValueError(f"invalid QoS annotation: {error}") from None
        name = typed(fields["benchmark"], str)
        try:
            profile = parsec_profile(name)
        except KeyError:
            raise ValueError(f"unknown benchmark {name!r}") from None
        return TaskSpec(
            profile=profile,
            n_threads=n_threads,
            arrival_time_s=time_s,
            seed=typed(fields.get("seed", 0), int),
            work_scale=typed(fields.get("work_scale", 1.0), float),
            qos=qos,
        )

    return decode


def load_arrival_trace(path: PathLike) -> List[TaskSpec]:
    """Load an arrival trace back into a spec list.

    Every error, the record-file ones included, is a
    ``ValueError("<path>:<line>: ...")``.
    """
    return records.load(path, {"arrival": _arrival_decoder()})
