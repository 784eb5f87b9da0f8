"""Interval thermal simulation substrate (HotSniper analogue)."""

from .batch import BatchedSimulatorSet
from .context import SimContext
from .dtm import DtmController
from .engine import IntervalSimulator
from .events import (
    DtmEngaged,
    DtmReleased,
    Event,
    EventLog,
    TaskArrived,
    TaskCompleted,
    ThreadMigrated,
)
from .metrics import SimulationResult, TaskRecord
from .migration import MigrationAccountant

__all__ = [
    "BatchedSimulatorSet",
    "DtmController",
    "DtmEngaged",
    "DtmReleased",
    "Event",
    "EventLog",
    "IntervalSimulator",
    "MigrationAccountant",
    "SimContext",
    "SimulationResult",
    "TaskArrived",
    "TaskCompleted",
    "TaskRecord",
    "ThreadMigrated",
]
