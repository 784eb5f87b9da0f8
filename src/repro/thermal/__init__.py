"""Thermal substrate: floorplan, HotSpot-style RC model, MatEx solver.

This package implements the paper's Section III-B thermal model and the
transient machinery its peak-temperature method (Section IV) builds on.
"""

from .batched_state import BatchedSpectralState
from .calibrate import (
    HOT_THREAD_POWER_W,
    MOTIVATIONAL_PEAK_C,
    UNIFORM_SUSTAINABLE_POWER_W,
    calibrated_model,
    calibrated_stack,
)
from .floorplan import CoreBlock, Floorplan
from .matex import ThermalDynamics
from .rc_model import MaterialStack, RCThermalModel, build_rc_model
from .spectral_state import SpectralThermalState
from .steady_state import (
    heat_distribution_matrix,
    steady_core_temperatures,
    steady_peak,
    sustainable_uniform_power,
    uniform_power_response,
)

__all__ = [
    "BatchedSpectralState",
    "CoreBlock",
    "Floorplan",
    "MaterialStack",
    "RCThermalModel",
    "SpectralThermalState",
    "ThermalDynamics",
    "build_rc_model",
    "calibrated_model",
    "calibrated_stack",
    "heat_distribution_matrix",
    "steady_core_temperatures",
    "steady_peak",
    "sustainable_uniform_power",
    "uniform_power_response",
    "HOT_THREAD_POWER_W",
    "MOTIVATIONAL_PEAK_C",
    "UNIFORM_SUSTAINABLE_POWER_W",
]
