"""Crash a real sweep with SIGKILL and resume it to identical results.

The hardest guarantee in ``docs/faults.md``: a checkpointed sweep that is
killed mid-flight and resumed renders the same figure — and finalizes the
same checkpoint content — as one that ran straight through.  SIGKILL is
uncatchable, so this exercises the durability path (append + flush +
fsync, torn-tail tolerance), not any signal handler.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import config
from repro.experiments import fig4a

#: sweep shape shared by the child process and the in-process reference —
#: sized so one cell takes ~1 s (long enough to land a kill mid-sweep).
_BENCHMARKS = ("blackscholes", "canneal")
_WORK_SCALE = 60.0
_MAX_TIME_S = 60.0
_SEED = 42
_N_CELLS = len(_BENCHMARKS) * 2  # x {pcmig, hotpotato}

_CHILD_SCRIPT = """
import sys
from repro import config
from repro.experiments import fig4a

fig4a.run(
    config=config.small_test(),
    benchmarks={benchmarks!r},
    seed={seed},
    work_scale={work_scale},
    max_time_s={max_time_s},
    checkpoint_path={path!r},
)
"""


def _run_reference(checkpoint_path):
    result = fig4a.run(
        config=config.small_test(),
        benchmarks=_BENCHMARKS,
        seed=_SEED,
        work_scale=_WORK_SCALE,
        max_time_s=_MAX_TIME_S,
        checkpoint_path=checkpoint_path,
    )
    return result.render()


def _checkpoint_fingerprint(path):
    """Checkpoint content minus wall-clock telemetry, in file order.

    ``scheduler_wall_time_s`` / ``profile`` are measurements of the host,
    not of the simulation — they differ between any two runs and are
    excluded, exactly as in ``test_byte_identity``.
    """
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        record = json.loads(line)
        record["result"].pop("scheduler_wall_time_s", None)
        record["result"].pop("profile", None)
        records.append(record)
    return records


def _count_lines(path):
    if not path.exists():
        return 0
    return sum(
        1
        for line in path.read_text(encoding="utf-8").splitlines()
        if '"kind": "cell"' in line
    )


def test_sigkill_resume_reproduces_uninterrupted_run(tmp_path):
    ref_ckpt = tmp_path / "reference.jsonl"
    crash_ckpt = tmp_path / "crashed.jsonl"

    reference_render = _run_reference(str(ref_ckpt))
    assert _count_lines(ref_ckpt) == _N_CELLS

    # -- start the doomed sweep in a real subprocess ----------------------------
    script = _CHILD_SCRIPT.format(
        benchmarks=_BENCHMARKS,
        seed=_SEED,
        work_scale=_WORK_SCALE,
        max_time_s=_MAX_TIME_S,
        path=str(crash_ckpt),
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        # wait for the first durably-checkpointed cell, then kill -9
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if _count_lines(crash_ckpt) >= 1:
                break
            if child.poll() is not None:
                pytest.fail("child sweep exited before it could be killed")
            time.sleep(0.02)
        else:
            pytest.fail("child sweep never checkpointed a cell")
        child.kill()  # SIGKILL: no cleanup, no atexit, no flush
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    done_before_resume = _count_lines(crash_ckpt)
    assert 1 <= done_before_resume < _N_CELLS, (
        f"kill landed after {done_before_resume}/{_N_CELLS} cells; "
        "the sweep must die mid-flight for resume to mean anything"
    )

    # -- resume in-process and compare ------------------------------------------
    resumed = fig4a.run(
        config=config.small_test(),
        benchmarks=_BENCHMARKS,
        seed=_SEED,
        work_scale=_WORK_SCALE,
        max_time_s=_MAX_TIME_S,
        checkpoint_path=str(crash_ckpt),
        resume=True,
    )
    assert resumed.render() == reference_render
    assert _checkpoint_fingerprint(crash_ckpt) == _checkpoint_fingerprint(ref_ckpt)


def test_resume_skips_completed_cells(tmp_path, monkeypatch):
    """After a full run, resuming re-executes nothing."""
    ckpt = tmp_path / "full.jsonl"
    first = _run_reference(str(ckpt))

    calls = []
    real_cell = fig4a._simulate_cell

    def counting_cell(*args, **kwargs):
        calls.append(kwargs.get("benchmark"))
        return real_cell(*args, **kwargs)

    monkeypatch.setattr(fig4a, "_simulate_cell", counting_cell)
    resumed = fig4a.run(
        config=config.small_test(),
        benchmarks=_BENCHMARKS,
        seed=_SEED,
        work_scale=_WORK_SCALE,
        max_time_s=_MAX_TIME_S,
        checkpoint_path=str(ckpt),
        resume=True,
    )
    assert calls == []
    assert resumed.render() == first
