"""Schedulers: HotPotato plus the paper's baselines."""

from .async_migration import AsyncMigrationScheduler
from .base import Scheduler, SchedulerDecision
from .fixed_rotation import FixedRotationScheduler
from .hotpotato_dvfs import HotPotatoDvfsScheduler
from .hotpotato_runtime import HotPotatoScheduler
from .naive import PeakFrequencyScheduler, StaticPlacer
from .pcgov import PCGovScheduler
from .pcmig import PCMigScheduler

__all__ = [
    "AsyncMigrationScheduler",
    "FixedRotationScheduler",
    "HotPotatoDvfsScheduler",
    "HotPotatoScheduler",
    "PCGovScheduler",
    "PCMigScheduler",
    "PeakFrequencyScheduler",
    "Scheduler",
    "SchedulerDecision",
    "StaticPlacer",
]
