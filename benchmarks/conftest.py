"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures (at a reduced
scale where the full sweep would take minutes) and asserts the published
*shape* — who wins, by roughly what factor, where the crossovers fall.

BLAS runs one thread, as in every ``python -m bench`` process.  Forked
sweep workers (``jobs=4``) each start their own BLAS thread pool, and on
a 2-vCPU host four pools oversubscribe the cores.  The pin only takes
effect if it is set before NumPy loads its BLAS, hence before the
imports below.
"""

import os
import sys

_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if "numpy" in sys.modules and any(
    os.environ.get(key) != value for key, value in _BLAS_ENV.items()
):
    raise RuntimeError("numpy was imported before benchmarks/conftest.py pinned BLAS")
os.environ.update(_BLAS_ENV)

import pytest  # noqa: E402

from repro import config  # noqa: E402
from repro.sim.context import SimContext  # noqa: E402


@pytest.fixture(scope="session")
def ctx16():
    """Shared motivational-platform models (calibration amortized)."""
    return SimContext(config.motivational())


@pytest.fixture(scope="session")
def ctx64():
    """Shared evaluation-platform models."""
    return SimContext(config.table1())
