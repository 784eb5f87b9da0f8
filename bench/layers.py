"""Layer timers installed around the program's public methods.

The traced run replaces each method listed in :data:`SWEEP_LAYERS` (and,
in the traced server, :data:`SERVE_LAYERS`) at class or module level
with a wrapper that pushes a frame on an in-memory stack.  A frame's self
time is its duration minus the durations of the wrapped frames nested in
it, so the self times of all frames add up to the time spent inside
top-level frames.  Nothing is written until the workload ends.

Coroutines cannot share the stack (their awaits interleave), so
:meth:`LayerTimer.wrap_async` records their wall duration on its own: the
time a request waited for its batch to flush.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Patch = Tuple[str, Optional[str], str, str]

#: (module, class or None, attribute, layer) of the engine stack that
#: sweeps and ``/v1/simulate`` share.  Layers are named after modules.
ENGINE_LAYERS: Tuple[Patch, ...] = (
    ("repro.sim.context", "SimContext", "__init__", "sim.context"),
    ("repro.sim.engine", "IntervalSimulator", "run", "sim.engine"),
    ("repro.sim.batch", "BatchedSimulatorSet", "run_all", "sim.engine"),
    ("repro.sched.hotpotato_runtime", "HotPotatoScheduler", "decide", "sched.decide.hp"),
    ("repro.sched.pcmig", "PCMigScheduler", "decide", "sched.decide.pcmig"),
    ("repro.sched.base", "Scheduler", "on_task_arrival", "sched.arrival"),
    ("repro.sched.base", "Scheduler", "on_task_complete", "sched.complete"),
    ("repro.core.hotpotato", "HotPotato", "admit", "core.admit"),
    ("repro.core.hotpotato", "HotPotato", "remove", "core.remove"),
    ("repro.core.hotpotato", "HotPotato", "refresh", "core.refresh"),
    ("repro.core.peak_temperature", "PeakTemperatureCalculator", "peak_batch", "core.peak_batch"),
    ("repro.thermal.spectral_state", "SpectralThermalState", "step", "thermal.step"),
    ("repro.thermal.batched_state", "BatchedSpectralState", "step", "thermal.step"),
    ("repro.thermal.spectral_state", "SpectralThermalState", "core_temperatures", "thermal.read"),
    ("repro.thermal.batched_state", "BatchedSpectralState", "core_temperatures", "thermal.read"),
    ("repro.thermal.matex", "ThermalDynamics", "step_spectral", "thermal.predict"),
    ("repro.power.model", "PowerModel", "core_power_w", "power.map"),
    ("repro.workload.perf", "PerformanceModel", "time_per_instruction_s", "power.map"),
    ("repro.workload.perf", "PerformanceModel", "activity_fractions", "power.map"),
    ("repro.sim.dtm", "DtmController", "update", "sim.dtm"),
    ("repro.sim.dtm", "DtmController", "apply", "sim.dtm"),
    ("repro.sim.migration", "MigrationAccountant", "charge_moves", "sim.migration"),
    ("repro.sim.migration", "MigrationAccountant", "consume_debt", "sim.migration"),
)

#: Sweep-only layers: workload construction, reached through the
#: module-level names the figure modules imported.
SWEEP_LAYERS: Tuple[Patch, ...] = ENGINE_LAYERS + (
    ("repro.experiments.fig4a", None, "homogeneous_fill", "workload.build"),
    ("repro.experiments.fig4a", None, "materialize", "workload.build"),
    ("repro.experiments.fig4b", None, "_cell_specs", "workload.build"),
    ("repro.experiments.fig4b", None, "materialize", "workload.build"),
)

SERVE_LAYERS: Tuple[Patch, ...] = ENGINE_LAYERS + (
    ("repro.serve.service", None, "materialize", "workload.build"),
    ("repro.serve.service", "ThermalService", "_workload_specs", "workload.build"),
    ("repro.serve.service", "ThermalService", "create_tenant", "setup.context"),
    ("repro.serve.service", "ThermalService", "parse_candidates", "serve.parse"),
    ("repro.serve.service", "ThermalService", "ladder_candidates", "serve.parse"),
    ("repro.serve.service", "ThermalService", "peak_payload", "serve.payload"),
    ("repro.serve.service", "ThermalService", "tau_payload", "serve.payload"),
    ("repro.serve.service", "ThermalService", "summarize_simulation", "serve.payload"),
    ("repro.serve.cache", "ServeCache", "dynamics_for", "serve.cache"),
    ("repro.serve.cache", "ServeCache", "calculator_for", "serve.cache"),
    ("repro.serve.cache", "ServeCache", "context_for", "serve.cache"),
    ("repro.serve.service", "ThermalService", "simulate", "serve.simulate.compute"),
    ("repro.serve.service", "ThermalService", "simulate_many", "serve.simulate.compute"),
)

#: Coroutines timed by wall duration: (module, class, attribute, layer).
SERVE_WAITS: Tuple[Patch, ...] = (
    ("repro.serve.batch", "MicroBatcher", "evaluate_many", "serve.peak.wait"),
    ("repro.serve.batch", "SimulateBatcher", "simulate", "serve.simulate.wait"),
)


class LayerTimer:
    """Inclusive time, self time and call counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: inclusive time of frames with no wrapped caller, per layer
        self.top_level: Dict[str, float] = defaultdict(float)
        #: wall seconds awaited inside wrapped coroutines, per layer
        self.waits: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: per-layer hooks ``fn(timer, args, result)`` run after each call
        self.on_return: Dict[str, Callable[..., None]] = {}
        #: scheduler id -> (placements, tau) of its previous decision
        self.last_decision: Dict[int, Any] = {}
        #: Algorithm-1 calculators seen, by id
        self.calculators: Dict[int, Any] = {}
        self._stack: List[list] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, nested = self._stack.pop()
        duration = self.clock() - start
        self.inclusive[layer] += duration
        self.self_time[layer] += duration - nested
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level[layer] += duration

    def wrap(self, fn: Callable, layer: str) -> Callable:
        hook = self.on_return.get(layer)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result
            finally:
                self.exit()

        return timed

    def wrap_async(self, fn: Callable, layer: str) -> Callable:
        @functools.wraps(fn)
        async def timed(*args, **kwargs):
            start = self.clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.waits[layer] += self.clock() - start
                self.counts[layer + ".calls"] += 1

        return timed

    def install(
        self, layers: Sequence[Patch], waits: Sequence[Patch] = ()
    ) -> None:
        """Replace every listed attribute with its timed wrapper."""
        for module_name, class_name, attr, layer in layers:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer))
        for module_name, class_name, attr, layer in waits:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap_async(original, layer))

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def note_decide(timer: LayerTimer, args, decision) -> None:
    """Count decide() calls whose placements or tau differ from the same
    scheduler's previous call (the useful-work ratio of decide)."""
    scheduler = args[0]
    # copied: a scheduler may hand out (and later mutate) its own dict
    current = (dict(decision.placements), decision.tau_s)
    if timer.last_decision.get(id(scheduler)) != current:
        timer.counts["sched.decide.changed"] += 1
    timer.last_decision[id(scheduler)] = current


def note_peak_batch(timer: LayerTimer, args, result) -> None:
    """Candidates evaluated, and the calculators seen (for the memo hit
    ratio, read at the end through ``cache_stats()``)."""
    timer.counts["core.peak_batch.candidates"] += len(args[1])
    timer.calculators[id(args[0])] = args[0]


def memo_hit_ratio(timer: LayerTimer) -> float:
    """Algorithm-1 memo hits over lookups, read through ``cache_stats()``."""
    hits = misses = 0
    for calculator in timer.calculators.values():
        stats = calculator.cache_stats()
        hits += stats["peak_cache.hits"]
        misses += stats["peak_cache.misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(timer, busy_s: float, units: int) -> Dict[str, float]:
    """The engine-stack per-layer metrics every workload reports.

    Time is given as a share of ``busy_s`` (the traced passes' host time,
    or the traced server's CPU time) and counts per unit of work
    (``units``: sweep passes or served requests), so they compare across
    runs of any length.  ``timer`` needs ``self_time``, ``calls``,
    ``counts`` and ``top_level``.
    """

    def share(*layers: str) -> float:
        return sum(timer.self_time[layer] for layer in layers) / busy_s

    decide = ("sched.decide.hp", "sched.decide.pcmig")
    decide_calls = sum(timer.calls[layer] for layer in decide)
    decide_self = sum(timer.self_time[layer] for layer in decide)
    return {
        "sched.decide.calls": decide_calls / units,
        "sched.decide.self_share": share(*decide),
        "sched.decide.changed_ratio": (
            timer.counts["sched.decide.changed"] / decide_calls if decide_calls else 0.0
        ),
        "sched.decide.hp_share": (
            timer.self_time["sched.decide.hp"] / decide_self if decide_self else 0.0
        ),
        "sched.arrival.self_share": share("sched.arrival"),
        "sched.complete.self_share": share("sched.complete"),
        "core.admit.self_share": share("core.admit"),
        "core.remove.self_share": share("core.remove"),
        "core.refresh.self_share": share("core.refresh"),
        "core.peak_batch.calls": timer.calls["core.peak_batch"] / units,
        "core.peak_batch.candidates": timer.counts["core.peak_batch.candidates"] / units,
        "core.peak_batch.share": share("core.peak_batch"),
        "thermal.step.calls": timer.calls["thermal.step"] / units,
        "thermal.step.share": share("thermal.step"),
        "thermal.read.share": share("thermal.read"),
        "thermal.predict.share": share("thermal.predict"),
        "power.map.share": share("power.map"),
        "sim.dtm.share": share("sim.dtm"),
        "sim.migration.share": share("sim.migration"),
        "sim.context.share": share("sim.context"),
        "sim.engine.self_share": share("sim.engine"),
        "workload.build.share": share("workload.build"),
        "trace.coverage": sum(timer.top_level.values()) / busy_s,
    }


def new_timer() -> LayerTimer:
    """A timer with the decide and peak_batch hooks attached."""
    timer = LayerTimer()
    timer.on_return["sched.decide.hp"] = note_decide
    timer.on_return["sched.decide.pcmig"] = note_decide
    timer.on_return["core.peak_batch"] = note_peak_batch
    return timer
