"""Shared fixtures.

Expensive artifacts (calibrated thermal models, eigendecompositions) are
session-scoped; tests must treat them as read-only.

BLAS runs one thread, as in every benchmark process: the thread count
changes dense factorizations in the last bits, and the exact-equality
tests (the factored steady state against a dense solve, the golden
outputs) hold for one thread.  The pin only takes effect if it is set
before NumPy loads its BLAS, hence before the imports below.
"""

import os
import sys

_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if "numpy" in sys.modules and any(
    os.environ.get(key) != value for key, value in _BLAS_ENV.items()
):
    raise RuntimeError("numpy was imported before tests/conftest.py pinned BLAS")
os.environ.update(_BLAS_ENV)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro import config  # noqa: E402
from repro.arch import AmdRings, Mesh  # noqa: E402
from repro.core import PeakTemperatureCalculator  # noqa: E402
from repro.thermal import ThermalDynamics, calibrated_model  # noqa: E402


@pytest.fixture(scope="session")
def cfg4():
    """2x2 platform (fast unit tests)."""
    return config.small_test()


@pytest.fixture(scope="session")
def cfg16():
    """4x4 motivational platform (Figs. 1-2)."""
    return config.motivational()


@pytest.fixture(scope="session")
def cfg64():
    """8x8 evaluation platform (Table I)."""
    return config.table1()


@pytest.fixture(scope="session")
def model16(cfg16):
    return calibrated_model(cfg16)


@pytest.fixture(scope="session")
def model64(cfg64):
    return calibrated_model(cfg64)


@pytest.fixture(scope="session")
def dynamics16(model16):
    return ThermalDynamics(model16)


@pytest.fixture(scope="session")
def dynamics64(model64):
    return ThermalDynamics(model64)


@pytest.fixture(scope="session")
def calculator16(dynamics16, cfg16):
    return PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)


@pytest.fixture(scope="session")
def calculator64(dynamics64, cfg64):
    return PeakTemperatureCalculator(dynamics64, cfg64.thermal.ambient_c)


@pytest.fixture(scope="session")
def mesh16():
    return Mesh(4, 4)


@pytest.fixture(scope="session")
def mesh64():
    return Mesh(8, 8)


@pytest.fixture(scope="session")
def rings16(mesh16):
    return AmdRings(mesh16)


@pytest.fixture(scope="session")
def rings64(mesh64):
    return AmdRings(mesh64)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
