"""Tenant registry and domain logic behind the service endpoints.

:class:`ThermalService` is the transport-free core of ``repro.serve``: it
owns the tenant table, validates request payloads, builds Algorithm-1
candidate lists, selects rotation intervals over the tau-ladder, runs
bounded-horizon simulations, and walks each tenant's degradation ladder.
The HTTP layer (:mod:`repro.serve.http`) is a thin translation of these
methods onto routes; everything here is synchronous, deterministic and
directly unit-testable.

**Degradation ladder** (mirrors :data:`repro.sched.base.DEGRADATION_MODES`
— see ``docs/faults.md``): a tenant starts ``normal``.  A failed
simulation moves it to ``degraded`` — further ``/v1/simulate`` calls are
refused with a retry hint until a cooldown elapses, while the cheap
analytic endpoints keep answering.  ``park_after_failures`` consecutive
failures move it to ``safe-park`` — *every* tenant endpoint is refused
(HTTP 503 + ``Retry-After`` at the transport) for a 10x longer cooldown.
A successful simulation resets the tenant to ``normal``.  Time is
injected by the caller (the HTTP layer passes the event loop's monotonic
clock) so the service itself never reads a clock.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SystemConfig
from ..core.hotpotato import DEFAULT_TAU_LADDER_S
from ..obs.detect import SloLatencyViolationDetector
from ..obs.observer import Observer
from ..obs.profiling import PhaseProfiler
from ..obs.slo import SloTarget
from ..sched import (
    FixedRotationScheduler,
    HotPotatoScheduler,
    PCGovScheduler,
    PCMigScheduler,
    PeakFrequencyScheduler,
)
from ..sim import IntervalSimulator
from ..traffic import PoissonProcess, assign_arrivals
from ..workload.benchmarks import PARSEC
from ..workload.generator import (
    homogeneous_fill,
    materialize,
    random_mixed_workload,
)
from .cache import ServeCache, config_fingerprint, model_fingerprint

__all__ = ["ServeConfig", "TenantState", "ThermalService", "metric_label"]

#: Tenant degradation modes, mildest first (the serve-side mirror of
#: :data:`repro.sched.base.DEGRADATION_MODES`).
TENANT_MODES = ("normal", "degraded", "safe-park")

#: Schedulers a tenant may request for ``/v1/simulate``.
SCHEDULERS = {
    "hotpotato": HotPotatoScheduler,
    "pcmig": PCMigScheduler,
    "pcgov": PCGovScheduler,
    "fixed_rotation": FixedRotationScheduler,
    "peak_frequency": PeakFrequencyScheduler,
}

#: Tenant-config override keys accepted by ``POST /v1/tenants`` and the
#: SystemConfig/ThermalConfig field each maps to.
_TOP_LEVEL_OVERRIDES = (
    "mesh_width",
    "mesh_height",
    "rotation_interval_s",
    "sim_interval_s",
)
_THERMAL_OVERRIDES = (
    "ambient_c",
    "dtm_threshold_c",
    "dtm_hysteresis_c",
    "headroom_delta_c",
    "idle_power_w",
)


@dataclass(frozen=True)
class ServeConfig:
    """Operating limits of one server instance."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests, benchmarks).
    port: int = 0
    max_tenants: int = 64
    #: hard ceiling on one ``/v1/simulate`` horizon [simulated s].
    simulate_max_time_s: float = 0.25
    #: ``Retry-After`` hint for a ``degraded`` tenant [s].
    retry_after_s: float = 1.0
    #: consecutive simulation failures before ``safe-park``.
    park_after_failures: int = 3
    #: micro-batch coalescing window [s]; 0 coalesces within one event-loop
    #: tick (every request that arrived in the same burst).
    batch_window_s: float = 0.0
    #: largest accepted request body [bytes].
    max_body_bytes: int = 1 << 20
    #: request-span tracing (off by default: zero overhead, byte-identical
    #: responses — see ``docs/observability.md``).
    trace_spans: bool = False
    #: ring-buffer capacity of the in-memory span store.
    trace_capacity: int = 4096
    #: optional span JSONL sink path (streamed as spans finish).
    trace_path: Optional[str] = None
    #: default per-tenant latency SLO target [s]; ``None`` disables SLO
    #: tracking for tenants that do not request one explicitly.
    slo_latency_s: Optional[float] = None
    #: default allowed fraction of requests over the SLO target.
    slo_error_budget: float = 0.01

    @property
    def park_retry_after_s(self) -> float:
        """Cooldown of a safe-parked tenant (10x the degraded hint)."""
        return 10.0 * self.retry_after_s


@dataclass
class TenantState:
    """One tenant: its configuration, shared-cache handles and health."""

    name: str
    config: SystemConfig
    #: full-configuration fingerprint (cache identity, exposed in the API)
    fingerprint: str
    #: floorplan/calibration fingerprint (eigendecomposition identity)
    model_fp: str
    calculator: Any
    #: consecutive simulation failures
    failures: int = 0
    mode: str = "normal"
    #: monotonic instant until which the current mode refuses requests
    blocked_until_s: float = 0.0
    requests: int = 0
    annotations: Dict[str, float] = field(default_factory=dict)
    #: latency-SLO detector (None when no target is configured)
    slo: Optional[SloLatencyViolationDetector] = None


class ThermalService:
    """Transport-free service core: tenants, queries, degradation."""

    def __init__(
        self, serve_config: Optional[ServeConfig] = None,
        cache: Optional[ServeCache] = None,
    ):
        self.config = serve_config if serve_config is not None else ServeConfig()
        self.cache = cache if cache is not None else ServeCache()
        self._tenants: Dict[str, TenantState] = {}
        #: monotonic transition counters for the metrics registry
        self.degradation_transitions: Dict[str, int] = {
            mode: 0 for mode in TENANT_MODES
        }
        self.simulate_failures = 0

    # -- tenant registry -----------------------------------------------------

    @staticmethod
    def build_config(overrides: Optional[Dict[str, Any]]) -> SystemConfig:
        """A tenant :class:`SystemConfig` from a JSON override object."""
        config = SystemConfig()
        if not overrides:
            return config
        if not isinstance(overrides, dict):
            raise ValueError("config must be a JSON object")
        unknown = (
            set(overrides) - set(_TOP_LEVEL_OVERRIDES) - set(_THERMAL_OVERRIDES)
        )
        if unknown:
            raise ValueError(
                f"unknown config keys: {sorted(unknown)}; allowed: "
                f"{sorted(_TOP_LEVEL_OVERRIDES + _THERMAL_OVERRIDES)}"
            )
        top = {}
        for key in _TOP_LEVEL_OVERRIDES:
            if key in overrides:
                value = overrides[key]
                if key.startswith("mesh_"):
                    if not isinstance(value, int) or value < 1:
                        raise ValueError(f"{key} must be a positive integer")
                    top[key] = value
                else:
                    top[key] = _positive_float(key, value)
        thermal = {}
        for key in _THERMAL_OVERRIDES:
            if key in overrides:
                thermal[key] = _finite_float(key, overrides[key])
        if thermal:
            top["thermal"] = dataclasses.replace(config.thermal, **thermal)
        return config.replace(**top)

    def build_slo(
        self, slo: Optional[Dict[str, Any]], tenant_name: str
    ) -> Optional[SloLatencyViolationDetector]:
        """A latency-SLO detector from a ``slo`` request object.

        ``{"latency_s": ..., "error_budget": ...}`` per tenant; when the
        request carries no ``slo`` object, the server-wide default from
        :class:`ServeConfig` applies (``None`` = no SLO tracking).
        """
        if slo is None:
            if self.config.slo_latency_s is None:
                return None
            target = SloTarget(
                self.config.slo_latency_s, self.config.slo_error_budget
            )
            return SloLatencyViolationDetector(target, tenant=tenant_name)
        if not isinstance(slo, dict):
            raise ValueError("slo must be a JSON object")
        unknown = set(slo) - {"latency_s", "error_budget"}
        if unknown:
            raise ValueError(
                f"unknown slo keys: {sorted(unknown)}; "
                "allowed: ['error_budget', 'latency_s']"
            )
        if "latency_s" not in slo:
            raise ValueError("slo needs 'latency_s'")
        target = SloTarget(
            _positive_float("slo.latency_s", slo["latency_s"]),
            _positive_float(
                "slo.error_budget",
                slo.get("error_budget", self.config.slo_error_budget),
            ),
        )
        return SloLatencyViolationDetector(target, tenant=tenant_name)

    def create_tenant(
        self,
        name: str,
        overrides: Optional[Dict[str, Any]] = None,
        slo: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Register a tenant; returns its public info object."""
        if not name or not isinstance(name, str):
            raise ValueError("tenant name must be a non-empty string")
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already exists")
        if len(self._tenants) >= self.config.max_tenants:
            raise ValueError(
                f"tenant capacity reached ({self.config.max_tenants})"
            )
        config = self.build_config(overrides)
        tenant = TenantState(
            name=name,
            config=config,
            fingerprint=config_fingerprint(config),
            model_fp=model_fingerprint(config),
            calculator=self.cache.calculator_for(config),
            slo=self.build_slo(slo, name),
        )
        self._tenants[name] = tenant
        return self.tenant_info(tenant)

    def delete_tenant(self, name: str) -> None:
        """Remove a tenant (shared cache entries stay warm)."""
        if name not in self._tenants:
            raise KeyError(f"unknown tenant {name!r}")
        del self._tenants[name]

    def tenant(self, name: str) -> TenantState:
        """Look up a tenant; raises :class:`KeyError` when unknown."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise KeyError(f"unknown tenant {name!r}")
        return tenant

    def tenants(self) -> List[TenantState]:
        """All tenants in creation order."""
        return list(self._tenants.values())

    def tenant_info(self, tenant: TenantState) -> Dict[str, Any]:
        """The public JSON view of one tenant."""
        thermal = tenant.config.thermal
        info: Dict[str, Any] = {
            "tenant": tenant.name,
            "fingerprint": tenant.fingerprint,
            "model_fingerprint": tenant.model_fp,
            "mesh": [tenant.config.mesh_width, tenant.config.mesh_height],
            "n_cores": tenant.config.n_cores,
            "ambient_c": thermal.ambient_c,
            "dtm_threshold_c": thermal.dtm_threshold_c,
            "dtm_hysteresis_c": thermal.dtm_hysteresis_c,
            "headroom_delta_c": thermal.headroom_delta_c,
            "mode": tenant.mode,
            "failures": tenant.failures,
            "requests": tenant.requests,
        }
        if tenant.slo is not None:
            info["slo"] = {
                key.removeprefix("slo."): value
                for key, value in tenant.slo.tracker.snapshot().items()
            }
            info["slo"]["violations"] = len(tenant.slo.violations)
        return info

    # -- degradation ladder --------------------------------------------------

    def blocked_for(
        self, tenant: TenantState, endpoint: str, now_s: float
    ) -> Optional[float]:
        """Seconds the caller should wait before retrying, or ``None``.

        ``degraded`` refuses only ``simulate``; ``safe-park`` refuses every
        tenant endpoint.  Once the cooldown elapses requests are admitted
        again (half-open: the mode label resets only on success).
        """
        if tenant.mode == "normal" or now_s >= tenant.blocked_until_s:
            return None
        if tenant.mode == "safe-park" or endpoint == "simulate":
            return max(0.0, tenant.blocked_until_s - now_s)
        return None

    def record_simulate_failure(
        self, tenant: TenantState, now_s: float
    ) -> str:
        """Advance the tenant's ladder after a failed simulation."""
        tenant.failures += 1
        self.simulate_failures += 1
        if tenant.failures >= self.config.park_after_failures:
            mode, cooldown = "safe-park", self.config.park_retry_after_s
        else:
            mode, cooldown = "degraded", self.config.retry_after_s
        if mode != tenant.mode:
            self.degradation_transitions[mode] += 1
        tenant.mode = mode
        tenant.blocked_until_s = now_s + cooldown
        return mode

    def record_simulate_success(self, tenant: TenantState) -> None:
        """A successful simulation fully resets the ladder."""
        if tenant.mode != "normal":
            self.degradation_transitions["normal"] += 1
        tenant.failures = 0
        tenant.mode = "normal"
        tenant.blocked_until_s = 0.0

    # -- /v1/peak ------------------------------------------------------------

    def parse_candidates(
        self, tenant: TenantState, payload: Dict[str, Any]
    ) -> Tuple[List[np.ndarray], List[Optional[float]]]:
        """Candidate lists for ``peak_batch`` from a ``/v1/peak`` payload.

        Accepts either one candidate (``power`` or ``power_seq`` plus an
        optional ``tau_s``) or a ``candidates`` array of such objects.
        """
        if "candidates" in payload:
            raw = payload["candidates"]
            if not isinstance(raw, list) or not raw:
                raise ValueError("candidates must be a non-empty array")
        else:
            raw = [payload]
        seqs: List[np.ndarray] = []
        taus: List[Optional[float]] = []
        for item in raw:
            seq, tau_s = self._parse_candidate(tenant, item)
            seqs.append(seq)
            taus.append(tau_s)
        return seqs, taus

    def _parse_candidate(
        self, tenant: TenantState, item: Dict[str, Any]
    ) -> Tuple[np.ndarray, Optional[float]]:
        if not isinstance(item, dict):
            raise ValueError("candidate must be a JSON object")
        n_cores = tenant.config.n_cores
        if "power_seq" in item:
            seq = _power_array("power_seq", item["power_seq"])
            if seq.ndim != 2:
                raise ValueError("power_seq must be a 2-D array")
        elif "power" in item:
            seq = _power_array("power", item["power"]).reshape(1, -1)
        else:
            raise ValueError("candidate needs 'power' or 'power_seq'")
        if seq.shape[1] != n_cores:
            raise ValueError(
                f"power vector length {seq.shape[1]} != n_cores {n_cores}"
            )
        if not np.all(np.isfinite(seq)) or np.any(seq < 0):
            raise ValueError("power must be finite and non-negative")
        tau_s = item.get("tau_s")
        if tau_s is not None:
            tau_s = _positive_float("tau_s", tau_s)
        return seq, tau_s

    def peak_payload(
        self,
        tenant: TenantState,
        peaks: Sequence[float],
        taus: Sequence[Optional[float]],
        single: bool,
    ) -> Dict[str, Any]:
        """The ``/v1/peak`` response body for evaluated candidates."""
        thermal = tenant.config.thermal
        target_c = thermal.dtm_threshold_c - thermal.headroom_delta_c
        results = [
            {
                "t_peak_c": float(peak),
                "tau_s": tau,
                "sustainable": bool(peak < target_c),
                "headroom_c": float(thermal.dtm_threshold_c - peak),
            }
            for peak, tau in zip(peaks, taus)
        ]
        if single:
            return results[0]
        return {"results": results}

    # -- /v1/tau -------------------------------------------------------------

    def ladder_candidates(
        self, tenant: TenantState, payload: Dict[str, Any]
    ) -> Tuple[List[np.ndarray], List[Optional[float]]]:
        """Tau-ladder candidates for a ``/v1/tau`` payload.

        The ladder is evaluated exactly as HotPotato's interval
        re-selection does (:meth:`repro.core.HotPotato._select_tau`):
        slowest interval first, with rotation-off (``tau = None``,
        evaluated on the first epoch only) as the cheapest candidate.
        """
        seq, _ = self._parse_candidate(tenant, payload)
        ladder = payload.get("ladder_s")
        if ladder is None:
            ladder_values = list(DEFAULT_TAU_LADDER_S)
        else:
            if not isinstance(ladder, list) or not ladder:
                raise ValueError("ladder_s must be a non-empty array")
            ladder_values = [_positive_float("ladder_s", t) for t in ladder]
        ladder_values = sorted(set(ladder_values), reverse=True)
        seqs: List[np.ndarray] = [seq[:1]]
        taus: List[Optional[float]] = [None]
        rotates = seq.shape[0] > 1
        for tau_s in ladder_values:
            seqs.append(seq if rotates else seq[:1])
            taus.append(tau_s if rotates else None)
        return seqs, taus

    def tau_payload(
        self,
        tenant: TenantState,
        peaks: Sequence[float],
        taus: Sequence[Optional[float]],
    ) -> Dict[str, Any]:
        """Select the slowest sustainable interval (Algorithm 2 policy).

        Falls back — exactly like the scheduler — to the slowest interval
        within 0.5 degC of the best achievable peak when nothing is
        sustainable (hardware DTM remains the backstop).
        """
        thermal = tenant.config.thermal
        peaks = [float(p) for p in peaks]
        target_c = max(
            thermal.dtm_threshold_c - thermal.headroom_delta_c,
            min(peaks) + 0.5,
        )
        chosen = 0
        for index, peak_c in enumerate(peaks):
            if peak_c <= target_c:
                chosen = index
                break
        sustainable = bool(
            peaks[chosen]
            < thermal.dtm_threshold_c - thermal.headroom_delta_c
        )
        return {
            "tau_s": taus[chosen],
            "t_peak_c": peaks[chosen],
            "sustainable": sustainable,
            "ladder": [
                {"tau_s": tau, "t_peak_c": peak}
                for tau, peak in zip(taus, peaks)
            ],
        }

    # -- /v1/simulate --------------------------------------------------------

    def build_simulation(
        self,
        tenant: TenantState,
        payload: Dict[str, Any],
        profiler: Optional[PhaseProfiler] = None,
    ) -> Tuple[IntervalSimulator, float, int]:
        """Phase 1 of ``/v1/simulate``: validate and construct.

        Returns the ready (unstarted) simulator, the clamped horizon and
        the submitted task count.  Split from :meth:`simulate` so
        :meth:`simulate_many` can build a whole burst first and fuse the
        runs' thermal stepping.
        """
        spec = payload.get("workload")
        if not isinstance(spec, dict):
            raise ValueError("simulate needs a 'workload' object")
        scheduler_name = payload.get("scheduler", "hotpotato")
        factory = (
            SCHEDULERS.get(scheduler_name)
            if isinstance(scheduler_name, str)
            else None
        )
        if factory is None:
            raise ValueError(
                f"unknown scheduler {scheduler_name!r}; "
                f"one of {sorted(SCHEDULERS)}"
            )
        max_time_s = _positive_float(
            "max_time_s", payload.get("max_time_s", 0.05)
        )
        horizon_s = min(max_time_s, self.config.simulate_max_time_s)
        tasks = materialize(self._workload_specs(tenant, spec))
        ctx = self.cache.context_for(tenant.config)
        observer = (
            Observer(profiler=profiler) if profiler is not None else None
        )
        simulator = IntervalSimulator(
            tenant.config, factory(), tasks, ctx=ctx, observer=observer
        )
        return simulator, horizon_s, len(tasks)

    def summarize_simulation(
        self, result, horizon_s: float, tasks_submitted: int
    ) -> Dict[str, Any]:
        """Phase 2 of ``/v1/simulate``: the response body for one run."""
        summary: Dict[str, Any] = {
            "scheduler": result.scheduler_name,
            "sim_time_s": result.sim_time_s,
            "horizon_s": horizon_s,
            "tasks_submitted": tasks_submitted,
            "tasks_completed": len(result.tasks),
            "dtm_triggers": result.dtm_triggers,
            "dtm_core_time_s": result.dtm_core_time_s,
            "migrations": result.migration_count,
            "migration_penalty_s": result.migration_penalty_s,
            "energy_j": result.energy_j,
        }
        if result.tasks:
            summary["makespan_s"] = result.makespan_s
            summary["mean_response_time_s"] = result.mean_response_time_s
        summary["peak_temperature_c"] = result.peak_temperature_c
        summary["time_above_dtm_s"] = result.time_above_dtm_s
        return summary

    def simulate(
        self,
        tenant: TenantState,
        payload: Dict[str, Any],
        profiler: Optional[PhaseProfiler] = None,
    ) -> Dict[str, Any]:
        """Run a bounded-horizon simulation and summarize the trace.

        The horizon is clamped to ``ServeConfig.simulate_max_time_s``:
        the server is single-threaded by design (``docs/serve.md``), so
        one tenant must not be able to monopolize the loop.  A
        ``profiler`` threads engine phase timings out to the caller (the
        HTTP layer turns them into child spans of the request).
        """
        simulator, horizon_s, n_tasks = self.build_simulation(
            tenant, payload, profiler
        )
        result = simulator.run(max_time_s=horizon_s)
        return self.summarize_simulation(result, horizon_s, n_tasks)

    def simulate_many(
        self,
        items: Sequence[Tuple[TenantState, Dict[str, Any]]],
        profilers: Optional[Sequence[Optional[PhaseProfiler]]] = None,
        metrics=None,
    ) -> List[Tuple[str, Any]]:
        """Run a burst of ``/v1/simulate`` requests with fused stepping.

        Builds every request's simulator first, groups the runs by shared
        eigenbasis (tenants whose configs share a
        :class:`~repro.thermal.matex.ThermalDynamics` via the
        :class:`~repro.serve.cache.ServeCache`), and lock-steps each group
        through one :class:`~repro.sim.batch.BatchedSimulatorSet` — the
        responses are byte-identical to sequential :meth:`simulate` calls.
        Returns one ``("ok", summary)`` or ``("error", exception)`` pair
        per request, in order; one request's failure never poisons the
        others (a failing fused group is re-run request-by-request to
        attribute the failure).  ``metrics`` receives the
        ``parallel.batch.*`` gauges.
        """
        from ..sim.batch import BatchedSimulatorSet

        if len(items) == 1:
            # single request: go through simulate() itself, so test
            # doubles and subclass overrides of it keep working (and the
            # plain 2-arg call when untraced keeps their signatures small)
            tenant, payload = items[0]
            profiler = profilers[0] if profilers is not None else None
            try:
                summary = (
                    self.simulate(tenant, payload, profiler)
                    if profiler is not None
                    else self.simulate(tenant, payload)
                )
            except Exception as exc:
                return [("error", exc)]
            return [("ok", summary)]

        outcomes: List[Optional[Tuple[str, Any]]] = [None] * len(items)
        built: List[Tuple[int, IntervalSimulator, float, int]] = []
        for index, (tenant, payload) in enumerate(items):
            profiler = profilers[index] if profilers is not None else None
            try:
                simulator, horizon_s, n_tasks = self.build_simulation(
                    tenant, payload, profiler
                )
            except Exception as exc:
                outcomes[index] = ("error", exc)
            else:
                built.append((index, simulator, horizon_s, n_tasks))

        groups: Dict[int, List[Tuple[int, IntervalSimulator, float, int]]] = {}
        for entry in built:
            groups.setdefault(id(entry[1].ctx.dynamics), []).append(entry)
        for members in groups.values():
            if len(members) == 1:
                index, simulator, horizon_s, n_tasks = members[0]
                try:
                    result = simulator.run(max_time_s=horizon_s)
                    outcomes[index] = (
                        "ok",
                        self.summarize_simulation(result, horizon_s, n_tasks),
                    )
                except Exception as exc:
                    outcomes[index] = ("error", exc)
                continue
            try:
                batch = BatchedSimulatorSet(
                    [sim for _, sim, _, _ in members], metrics=metrics
                )
                results = batch.run_all([h for _, _, h, _ in members])
            except Exception:
                # attribute the failure: re-run each request solo from a
                # fresh simulator (the fused ones are partially stepped)
                for index, _, _, _ in members:
                    tenant, payload = items[index]
                    profiler = (
                        profilers[index] if profilers is not None else None
                    )
                    try:
                        outcomes[index] = (
                            "ok", self.simulate(tenant, payload, profiler)
                        )
                    except Exception as exc:
                        outcomes[index] = ("error", exc)
                continue
            for (index, _, horizon_s, n_tasks), result in zip(
                members, results
            ):
                outcomes[index] = (
                    "ok", self.summarize_simulation(result, horizon_s, n_tasks)
                )
        return outcomes

    def _workload_specs(self, tenant: TenantState, spec: Dict[str, Any]):
        kind = spec.get("kind", "homogeneous")
        seed = _integer_at_least("workload seed", spec.get("seed", 0), 0)
        work_scale = _positive_float(
            "work_scale", spec.get("work_scale", 1.0)
        )
        if kind == "homogeneous":
            benchmark = spec.get("benchmark", "blackscholes")
            if not isinstance(benchmark, str) or benchmark not in PARSEC:
                raise ValueError(
                    f"unknown benchmark {benchmark!r}; one of {sorted(PARSEC)}"
                )
            specs = homogeneous_fill(
                benchmark,
                tenant.config.n_cores,
                seed=seed,
                work_scale=work_scale,
            )
        elif kind == "mixed":
            n_tasks = _integer_at_least("n_tasks", spec.get("n_tasks", 4), 1)
            specs = random_mixed_workload(
                n_tasks=n_tasks, seed=seed, work_scale=work_scale
            )
        else:
            raise ValueError(
                f"unknown workload kind {kind!r}; 'homogeneous' or 'mixed'"
            )
        rate = spec.get("arrival_rate_per_s")
        if rate is not None:
            specs = assign_arrivals(
                specs,
                PoissonProcess(_positive_float("arrival_rate_per_s", rate)),
                seed=seed,
            )
        return specs

    # -- observability -------------------------------------------------------

    def gauges(self) -> Dict[str, float]:
        """Service-level gauges for the ``/metrics`` exposition."""
        flat: Dict[str, float] = {
            "serve.tenants": float(len(self._tenants)),
            "serve.simulate.failures": float(self.simulate_failures),
        }
        for mode, count in self.degradation_transitions.items():
            key = mode.replace("-", "_")
            flat[f"serve.degradation.to_{key}"] = float(count)
        for name, value in self.cache.stats().items():
            flat[f"serve.cache.{name}"] = value
        for tenant in self._tenants.values():
            if tenant.slo is None:
                continue
            label = metric_label(tenant.name)
            flat[f"serve.tenant.{label}.slo.budget_used"] = (
                tenant.slo.tracker.budget_used
            )
            flat[f"serve.tenant.{label}.slo.violations"] = float(
                len(tenant.slo.violations)
            )
        return flat


def metric_label(name: str) -> str:
    """A tenant name as a legal metric-name segment.

    ``openmetrics_name`` would map illegal characters to ``_`` anyway;
    doing it here keeps ``/metrics`` names collision-checked and stable.
    """
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def _power_array(key: str, value: Any) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key} must be a numeric array ({exc})") from None


def _finite_float(key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number")
    result = float(value)
    if not np.isfinite(result):
        raise ValueError(f"{key} must be finite")
    return result


def _positive_float(key: str, value: Any) -> float:
    result = _finite_float(key, value)
    if result <= 0:
        raise ValueError(f"{key} must be positive")
    return result


def _integer_at_least(key: str, value: Any, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer")
    if value < minimum:
        raise ValueError(f"{key} must be at least {minimum}")
    return value
