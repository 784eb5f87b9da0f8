"""Open-system traffic: arrival processes, QoS streams, replayable traces.

See ``docs/traffic.md``.  The package is held to the lint determinism
family (``DETERMINISTIC_MODULES``): every arrival schedule is a pure
function of its seed.
"""

from .processes import (
    TRAFFIC_PATTERNS,
    ArrivalProcess,
    Burst,
    DiurnalProcess,
    FlashCrowd,
    PoissonProcess,
    TraceReplay,
    assign_arrivals,
    build_process,
)
from .trace import (
    load_arrival_trace,
    write_arrival_trace,
)

__all__ = [
    "ArrivalProcess",
    "Burst",
    "DiurnalProcess",
    "FlashCrowd",
    "PoissonProcess",
    "TRAFFIC_PATTERNS",
    "TraceReplay",
    "assign_arrivals",
    "build_process",
    "load_arrival_trace",
    "write_arrival_trace",
]
