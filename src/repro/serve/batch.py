"""Micro-batching of concurrent tenants' Algorithm-1 evaluations.

Every ``/v1/peak`` and ``/v1/tau`` request reduces to "evaluate these
``(power sequence, tau)`` candidates".  Evaluating them one request at a
time re-walks the floorplan's alpha/beta tensors per candidate; the
engine fast path (:meth:`~repro.core.peak_temperature.PeakTemperatureCalculator.peak_batch`)
already amortizes those tensors across a whole candidate list — so the
serve layer should hand it the *union* of everything currently in flight.

:class:`MicroBatcher` does exactly that: requests enqueue their
candidates and a flush callback — scheduled on the event loop, by
default for the very next tick (``loop.call_soon``), optionally delayed
by a coalescing window — drains the queue, groups candidates by
calculator instance (tenants sharing a calculator batch together, see
:class:`~repro.serve.cache.ServeCache`), and issues **one**
``peak_batch`` call per group.  Single-epoch answers are bit-for-bit
identical to sequential ones.  Multi-epoch (``delta > 1``) answers can
differ in the last bit (~1e-14 °C): stacking more candidates into one
matmul changes BLAS's summation order.  The serve test suite asserts
both.

Counters (``serve.batch.*``) surface on ``/metrics``: ``flushes``,
``requests`` (candidates evaluated), and ``coalesced`` (candidates that
shared a flush with at least one other request).

When a :class:`~repro.obs.spans.SpanTracer` is attached, each drain runs
under a ``batch.flush`` span **linked** to the request spans whose
candidates it evaluates: ``loop.call_soon`` copies the *scheduling*
request's context, so the flush span cannot be a child of any single
request — it fans in N of them, and links are the honest representation
(the request side records the origin span id at enqueue time).
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.spans import SpanTracer

__all__ = ["MicroBatcher", "SimulateBatcher"]

#: One queued candidate: calculator, power sequence, tau, waiter future,
#: and the span id of the request that enqueued it (None untraced).
_Pending = Tuple[
    object, np.ndarray, Optional[float], "asyncio.Future", Optional[int]
]


class MicroBatcher:
    """Coalesce concurrent candidate evaluations into ``peak_batch`` calls."""

    def __init__(
        self, window_s: float = 0.0, tracer: Optional[SpanTracer] = None
    ):
        #: coalescing window [s]; 0 flushes on the next event-loop tick.
        self.window_s = window_s
        #: span tracer (a disabled default keeps every span call a no-op)
        self.tracer = tracer if tracer is not None else SpanTracer()
        #: queued candidates awaiting the next flush
        self._pending: List[_Pending] = []
        self._flush_scheduled = False
        # monotonic counters, published as serve.batch.* on /metrics
        self.flushes = 0
        self.requests = 0
        self.coalesced = 0

    async def evaluate_many(
        self,
        calculator,
        seqs: Sequence[np.ndarray],
        taus_s: Sequence[Optional[float]],
    ) -> List[float]:
        """Evaluate candidates through the next shared flush.

        Returns the peak temperature per candidate, in order.  Concurrent
        callers (any tenant, any calculator) that enqueue before the flush
        fires are evaluated in the same drain.
        """
        loop = asyncio.get_running_loop()
        origin = self.tracer.current_span_id()
        futures: List[asyncio.Future] = []
        for seq, tau_s in zip(seqs, taus_s):
            future = loop.create_future()
            self._pending.append((calculator, seq, tau_s, future, origin))
            futures.append(future)
        self._schedule_flush(loop)
        with self.tracer.span("batch.wait", candidates=len(futures)):
            return list(await asyncio.gather(*futures))

    def _schedule_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        if self.window_s > 0:
            loop.call_later(self.window_s, self._flush)
        else:
            loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Drain the queue: one ``peak_batch`` call per calculator group."""
        self._flush_scheduled = False
        pending, self._pending = self._pending, []
        if not pending:
            return
        self.flushes += 1
        self.requests += len(pending)
        if len(pending) > 1:
            self.coalesced += len(pending)
        origins = sorted(
            {item[4] for item in pending if item[4] is not None}
        )
        groups: Dict[int, List[_Pending]] = {}
        for item in pending:
            groups.setdefault(id(item[0]), []).append(item)
        with self.tracer.span(
            "batch.flush",
            root=True,
            links=tuple(origins),
            candidates=len(pending),
            groups=len(groups),
        ):
            for items in groups.values():
                calculator = items[0][0]
                seqs = [item[1] for item in items]
                taus_s = [item[2] for item in items]
                with self.tracer.span(
                    "batch.peak_batch", candidates=len(items)
                ):
                    try:
                        peaks = calculator.peak_batch(seqs, taus_s)
                    except Exception as exc:  # surface to every waiter
                        for _, _, _, future, _ in items:
                            if not future.done():
                                future.set_exception(exc)
                        continue
                for (_, _, _, future, _), peak_c in zip(items, peaks):
                    if not future.done():
                        future.set_result(float(peak_c))

    def stats(self) -> Dict[str, float]:
        """Flat counters for the ``serve.batch.*`` metrics family."""
        return {
            "batch.flushes": float(self.flushes),
            "batch.requests": float(self.requests),
            "batch.coalesced": float(self.coalesced),
        }


#: One queued simulate request: tenant, payload, profiler, waiter future,
#: and the span id of the request that enqueued it (None untraced).
_PendingSim = Tuple[object, dict, object, "asyncio.Future", Optional[int]]


class SimulateBatcher:
    """Coalesce concurrent ``/v1/simulate`` runs into fused batched engines.

    The same flush discipline as :class:`MicroBatcher`, one level up the
    stack: requests enqueue ``(tenant, payload)`` and a flush — scheduled
    for the next event-loop tick, optionally delayed by a coalescing
    window — hands the whole burst to
    :meth:`~repro.serve.service.ThermalService.simulate_many`, which
    builds every simulator, groups runs sharing a thermal eigenbasis, and
    lock-steps each group through one
    :class:`~repro.sim.batch.BatchedSimulatorSet`.  Responses are
    byte-identical to sequential :meth:`ThermalService.simulate` calls,
    and each request's success/failure resolves independently — the HTTP
    layer's per-tenant degradation ladder is unchanged.

    Counters join the ``serve.batch.*`` family on ``/metrics``:
    ``simulate_flushes``, ``simulate_requests``, and ``simulate_fused``
    (requests whose flush held at least one other request).
    """

    def __init__(
        self,
        service,
        window_s: float = 0.0,
        tracer: Optional[SpanTracer] = None,
        metrics=None,
    ):
        #: the :class:`~repro.serve.service.ThermalService` running sims
        self.service = service
        #: coalescing window [s]; 0 flushes on the next event-loop tick.
        self.window_s = window_s
        self.tracer = tracer if tracer is not None else SpanTracer()
        #: optional MetricsRegistry receiving ``parallel.batch.*`` gauges
        self.metrics = metrics
        self._pending: List[_PendingSim] = []
        self._flush_scheduled = False
        # monotonic counters, published as serve.batch.* on /metrics
        self.simulate_flushes = 0
        self.simulate_requests = 0
        self.simulate_fused = 0

    async def simulate(
        self, tenant, payload: dict, profiler=None
    ) -> dict:
        """Run one simulate request through the next shared flush."""
        loop = asyncio.get_running_loop()
        origin = self.tracer.current_span_id()
        future = loop.create_future()
        self._pending.append((tenant, payload, profiler, future, origin))
        self._schedule_flush(loop)
        with self.tracer.span("batch.simulate_wait"):
            return await future

    def _schedule_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        if self.window_s > 0:
            loop.call_later(self.window_s, self._flush)
        else:
            loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Drain the queue through ``ThermalService.simulate_many``."""
        self._flush_scheduled = False
        pending, self._pending = self._pending, []
        if not pending:
            return
        self.simulate_flushes += 1
        self.simulate_requests += len(pending)
        if len(pending) > 1:
            self.simulate_fused += len(pending)
        origins = sorted(
            {item[4] for item in pending if item[4] is not None}
        )
        with self.tracer.span(
            "batch.simulate_flush",
            root=True,
            links=tuple(origins),
            requests=len(pending),
        ):
            outcomes = self.service.simulate_many(
                [(tenant, payload) for tenant, payload, _, _, _ in pending],
                profilers=[profiler for _, _, profiler, _, _ in pending],
                metrics=self.metrics,
            )
        for (_, _, _, future, _), (status, value) in zip(pending, outcomes):
            if future.done():
                continue
            if status == "ok":
                future.set_result(value)
            else:
                future.set_exception(value)

    def stats(self) -> Dict[str, float]:
        """Flat counters for the ``serve.batch.*`` metrics family."""
        return {
            "batch.simulate_flushes": float(self.simulate_flushes),
            "batch.simulate_requests": float(self.simulate_requests),
            "batch.simulate_fused": float(self.simulate_fused),
        }
