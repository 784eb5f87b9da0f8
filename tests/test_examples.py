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


@pytest.mark.parametrize(
    "example",
    [
        "quickstart",
        "anatomy_of_a_run",
        "thermal_trace_comparison",
        "open_system_poisson",
    ],
)
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
