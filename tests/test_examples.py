"""Smoke runs of the example scripts: each exits 0.

Every example runs in its own process, from a scratch working directory,
with BLAS pinned to one thread (as in the test process itself).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = [
    "amd_ring_explorer",
    "anatomy_of_a_run",
    "homogeneous_campaign",
    "observability_tour",
    "open_system_poisson",
    "peak_temperature_analysis",
    "quickstart",
    "stacked_3d_rotation",
    "thermal_trace_comparison",
]


def test_every_example_is_smoke_run():
    scripts = sorted(path.stem for path in (REPO_ROOT / "examples").glob("*.py"))
    assert EXAMPLES == scripts


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_exits_cleanly(example, tmp_path):
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / f"{example}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
