"""Result serialization.

Simulation results as JSON, for downstream analysis outside this package.
Round-trip loaders are provided so recorded campaigns can be re-analyzed
without re-simulating.  Per-interval core temperatures are not part of a
result; they are the interval records of an obs trace
(:class:`repro.obs.TraceRecorder`, ``docs/observability.md``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .sim.metrics import SimulationResult, TaskRecord

PathLike = Union[str, Path]


# -- simulation results <-> JSON ---------------------------------------------------


def result_to_dict(result: SimulationResult) -> dict:
    """Plain-dict form of a result (JSON-serializable)."""
    data = {
        "scheduler": result.scheduler_name,
        "sim_time_s": result.sim_time_s,
        "peak_temperature_c": result.peak_temperature_c,
        "time_above_dtm_s": result.time_above_dtm_s,
        "tasks": [
            {
                "task_id": t.task_id,
                "benchmark": t.benchmark,
                "n_threads": t.n_threads,
                "arrival_s": t.arrival_s,
                "completion_s": t.completion_s,
            }
            for t in result.tasks
        ],
        "dtm_triggers": result.dtm_triggers,
        "dtm_core_time_s": result.dtm_core_time_s,
        "migration_count": result.migration_count,
        "migration_penalty_s": result.migration_penalty_s,
        "energy_j": result.energy_j,
        "scheduler_wall_time_s": result.scheduler_wall_time_s,
        "scheduler_invocations": result.scheduler_invocations,
        "annotations": dict(result.annotations),
    }
    if result.energy_per_core_j:
        data["energy_per_core_j"] = list(result.energy_per_core_j)
    if result.instructions_retired:
        data["instructions_retired"] = result.instructions_retired
    if result.metrics_snapshot:
        data["metrics_snapshot"] = dict(result.metrics_snapshot)
    if result.profile:
        data["profile"] = {k: dict(v) for k, v in result.profile.items()}
    return data


def result_from_dict(data: dict) -> SimulationResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    return SimulationResult(
        scheduler_name=data["scheduler"],
        sim_time_s=data["sim_time_s"],
        peak_temperature_c=data["peak_temperature_c"],
        time_above_dtm_s=data["time_above_dtm_s"],
        tasks=[
            TaskRecord(
                task_id=t["task_id"],
                benchmark=t["benchmark"],
                n_threads=t["n_threads"],
                arrival_s=t["arrival_s"],
                completion_s=t["completion_s"],
            )
            for t in data["tasks"]
        ],
        dtm_triggers=data["dtm_triggers"],
        dtm_core_time_s=data["dtm_core_time_s"],
        migration_count=data["migration_count"],
        migration_penalty_s=data["migration_penalty_s"],
        energy_j=data["energy_j"],
        energy_per_core_j=[
            float(e) for e in data.get("energy_per_core_j", [])
        ],
        instructions_retired=float(data.get("instructions_retired", 0.0)),
        scheduler_wall_time_s=data["scheduler_wall_time_s"],
        scheduler_invocations=data["scheduler_invocations"],
        annotations=dict(data.get("annotations", {})),
        metrics_snapshot=dict(data.get("metrics_snapshot", {})),
        profile={
            k: dict(v) for k, v in data.get("profile", {}).items()
        },
    )


def save_result(result: SimulationResult, path: PathLike) -> None:
    """Write a result JSON to ``path``."""
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2))


def load_result(path: PathLike) -> SimulationResult:
    """Read a result JSON from ``path``."""
    return result_from_dict(json.loads(Path(path).read_text()))


# -- metrics snapshots -----------------------------------------------------------


def load_metrics_snapshot(path: PathLike) -> dict:
    """Load a flat ``name -> float`` metrics snapshot from a JSON file.

    Accepts both artifact shapes this package writes: a bare snapshot
    object (``MetricsRegistry.save``/``to_json``) and a full result JSON
    (:func:`save_result`), from which the embedded ``metrics_snapshot`` is
    extracted.  Used by the ``repro.obs diff``/``export`` CLI.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    if "metrics_snapshot" in data:
        data = data["metrics_snapshot"]
    elif "scheduler" in data and "sim_time_s" in data:
        raise ValueError(
            f"{path}: result JSON carries no metrics_snapshot "
            "(was the run executed with metrics enabled?)"
        )
    bad = [k for k, v in data.items() if not isinstance(v, (int, float))]
    if bad:
        raise ValueError(
            f"{path}: not a flat metrics snapshot "
            f"(non-numeric entries: {sorted(bad)[:3]})"
        )
    return {str(k): float(v) for k, v in sorted(data.items())}
