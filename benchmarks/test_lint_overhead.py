"""Lint overhead: the gate must stay cheap enough to run on every commit.

``python -m repro.lint check src/repro`` sits in the default test gate
(see ``tests/lint/test_self_check.py``), so its wall time is part of every
developer iteration.  This benchmark times a full-tree lint (engine +
all rule families) against a generous ceiling, so noisy CI boxes do not
flake.

A second gate holds the project-level analyzer: the full run — all
families *including* the call-graph ``async-safety`` pass
(:mod:`repro.lint.graph`) — must finish within ``GRAPH_MAX_RATIO`` times
a same-machine, same-process baseline run of the per-file families
alone.  Both numbers are measured here so the ratio is not poisoned by
machine-to-machine variance.
"""

import time
from pathlib import Path

import pytest

from repro.lint import default_rules, run_lint

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

REPEATS = 3
#: Full-tree lint must stay interactive ("a few seconds").
MAX_WALL_S = 10.0
#: The call-graph pass may at most double the pre-graph check time.
GRAPH_MAX_RATIO = 2.0


def _best_of(fn):
    """Best-of-``REPEATS`` wall time of ``fn()``."""
    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return min(walls)


@pytest.fixture(scope="module")
def measurements():
    """Full-tree lint wall time, with and without the graph pass."""
    per_file_rules = [r for r in default_rules() if r.family != "async-safety"]
    full_s = _best_of(lambda: run_lint([SRC]))
    baseline_s = _best_of(lambda: run_lint([SRC], rules=per_file_rules))
    return {"full_s": full_s, "ratio": full_s / baseline_s}


def test_full_tree_lint_is_fast(measurements):
    assert measurements["full_s"] < MAX_WALL_S


def test_graph_pass_within_ratio(measurements):
    """Full run (call graph + async-safety) <= 2x the per-file families."""
    assert measurements["ratio"] <= GRAPH_MAX_RATIO, measurements
