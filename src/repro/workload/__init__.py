"""Workload substrate: synthetic PARSEC profiles, tasks, generators."""

from .benchmarks import BENCHMARK_NAMES, PARSEC, BenchmarkProfile, parsec_profile
from .characterize import (
    BenchmarkCharacter,
    characterization_table,
    characterize,
    duty_cycle,
)
from .generator import (
    TaskSpec,
    homogeneous_fill,
    materialize,
    random_mixed_workload,
)
from .perf import PerformanceModel
from .phases import data_parallel, master_slave, pipeline, streaming
from .task import Task, Thread

__all__ = [
    "BENCHMARK_NAMES",
    "PARSEC",
    "BenchmarkCharacter",
    "BenchmarkProfile",
    "PerformanceModel",
    "characterization_table",
    "characterize",
    "duty_cycle",
    "Task",
    "TaskSpec",
    "Thread",
    "data_parallel",
    "homogeneous_fill",
    "master_slave",
    "materialize",
    "parsec_profile",
    "pipeline",
    "random_mixed_workload",
    "streaming",
]
