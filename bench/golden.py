"""Golden outputs and the drift report against ``results/*.txt``.

``bench/golden.json`` pins, per workload, the simulated statistics of
every sweep cell (makespan, mean response time, migrations, DTM
triggers) and a SHA-256 over the serve workload's phase-A response
bodies at seed 0.  Every run compares exactly: the simulator is
deterministic, so any difference is a behaviour change.

The committed ``results/fig4a.txt`` / ``results/fig4b.txt`` no longer
reproduce from the code exactly; :func:`results_drift` prints the
difference for the rows a workload matches, without failing.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List

from . import ROOT

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load() -> Dict[str, Any]:
    """The pinned outputs (empty before ``python -m bench golden`` ran)."""
    if not GOLDEN_PATH.is_file():
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def save(golden: Dict[str, Any]) -> None:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


def mismatches(expected: Any, actual: Any, path: str = "") -> List[str]:
    """Every leaf where ``actual`` differs from ``expected``, exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        found: List[str] = []
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}/{key}" if path else str(key)
            if key not in actual:
                found.append(f"{where}: missing (expected {expected[key]!r})")
            elif key not in expected:
                found.append(f"{where}: unexpected {actual[key]!r}")
            else:
                found.extend(mismatches(expected[key], actual[key], where))
        return found
    if expected != actual or type(expected) is not type(actual):
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


_FIG4A_ROW = re.compile(
    r"^(?P<name>[a-z0-9]+)\s+(?P<pcmig>[\d.]+)\s+(?P<hp>[\d.]+)\s+[\d.]+\s+(?P<gain>[+-][\d.]+)\s*$"
)
_FIG4B_ROW = re.compile(
    r"^(?P<name>\d+)\s+(?P<pcmig>[\d.]+)\s+(?P<hp>[\d.]+)\s+(?P<gain>[+-][\d.]+)\s*$"
)


def _rows(figure: str, results_dir: Path) -> Dict[str, Dict[str, float]]:
    path = results_dir / f"{figure}.txt"
    pattern = _FIG4A_ROW if figure == "fig4a" else _FIG4B_ROW
    rows: Dict[str, Dict[str, float]] = {}
    if not path.is_file():
        return rows
    for line in path.read_text(encoding="utf-8").splitlines():
        match = pattern.match(line)
        if match:
            rows[match["name"]] = {
                "pcmig": float(match["pcmig"]),
                "hotpotato": float(match["hp"]),
                "gain": float(match["gain"]),
            }
    return rows


def results_drift(
    figure: str,
    rows: Dict[str, Dict[str, float]],
    results_dir: Path = ROOT / "results",
) -> List[str]:
    """One line per matching row of ``results/<figure>.txt``.

    ``rows`` maps a row name (benchmark, or arrival rate as printed) to
    this run's ``pcmig`` / ``hotpotato`` milliseconds and ``gain`` in %.
    """
    committed = _rows(figure, results_dir)
    lines = []
    for name, ours in rows.items():
        theirs = committed.get(name)
        if theirs is None:
            continue
        lines.append(
            f"results drift {figure} {name}: "
            f"PCMig {ours['pcmig']:.1f} ms (results {theirs['pcmig']:.1f}), "
            f"HotPotato {ours['hotpotato']:.1f} ms (results {theirs['hotpotato']:.1f}), "
            f"gain {ours['gain']:+.2f} % (results {theirs['gain']:+.2f})"
        )
    return lines
