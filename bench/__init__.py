"""The repository's benchmark: host time, serve latency and a per-layer trace.

``python -m bench`` runs four workloads, each in a fresh subprocess:
three figure sweeps (``fig4a-closed``, ``fig4b-light``,
``fig4b-saturated``) and a loaded HTTP server (``serve-mixed``).  See
``bench/README.md`` for the workloads, the metrics and their bounds, and
the commands; ``BENCHMARK.json`` at the repository root fixes the names,
units, directions and regression bounds.

The package imports nothing from ``repro`` at module level: the parent
process stays light, and a checkout without ``src/repro`` fails with a
clear message instead of an import error.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict

#: Repository root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the ``repro`` package lives in a source checkout.
SRC = ROOT / "src"
#: Spawns per run whose median is ``setup_s``.
SETUP_SPAWNS = 3


def load_spec() -> Dict[str, Any]:
    """The benchmark definition in ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_checkout() -> None:
    """Raise :class:`FileNotFoundError` unless ``src/repro`` is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no repro package under {SRC}: run the benchmark from the root "
            "of a full source checkout"
        )


def peak_rss_mb() -> float:
    """Peak resident set size of this process's own address space, in MiB.

    Read from ``VmHWM``, not ``getrusage``: ``ru_maxrss`` also counts the
    address space a process had before ``exec``, which for a child that
    ``subprocess`` started with ``vfork`` is its parent's (a server spawned
    after the parent had loaded the program read 5 MiB larger).
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


#: BLAS pinned to one thread in every benchmark process.  On a 2-core
#: host a second BLAS thread contends with the process's own Python
#: thread (and, for serve, with the load generator): sweeps ran ~20 %
#: slower and noisier.  The thread count also changes results in the
#: last bits — the golden outputs hold for one thread only.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    ``src`` goes first on the import path, BLAS runs one thread, and
    output is unbuffered so the parent can read the server's "listening
    on" line through a pipe.
    """
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.update(BLAS_ENV)
    return env
