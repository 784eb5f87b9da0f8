"""Open-system traffic: the Poisson arrival process and replayable traces.

See ``docs/traffic.md``.  The package is held to the lint determinism
family (``DETERMINISTIC_MODULES``): every arrival schedule is a pure
function of its seed.
"""

from .processes import PoissonProcess, assign_arrivals
from .trace import (
    load_arrival_trace,
    write_arrival_trace,
)

__all__ = [
    "PoissonProcess",
    "assign_arrivals",
    "load_arrival_trace",
    "write_arrival_trace",
]
