"""The asyncio HTTP/1.1 transport of ``repro.serve``.

:class:`ThermalServer` binds a socket via :func:`asyncio.start_server`
and translates a deliberately small slice of HTTP/1.1 — request line,
headers, ``Content-Length`` bodies, keep-alive — onto the transport-free
:class:`~repro.serve.service.ThermalService`.  Zero dependencies beyond
the standard library; JSON in, JSON out, plus a JSONL streaming form of
``/v1/peak`` for bulk candidate evaluation.

Routes (full request/response schemas in ``docs/serve.md``):

==========  =======================  ==========================================
method      path                     purpose
==========  =======================  ==========================================
GET         ``/``                    service discovery document
GET         ``/metrics``             OpenMetrics exposition (live counters,
                                     latency quantiles and buckets)
GET         ``/debug/traces``        recent request spans (JSON or waterfall
                                     HTML; empty unless tracing is enabled)
GET         ``/v1/tenants``          list tenants
POST        ``/v1/tenants``          create a tenant
DELETE      ``/v1/tenants/<name>``   remove a tenant
POST        ``/v1/peak``             Algorithm-1 peak of candidate placements
POST        ``/v1/tau``              safe rotation interval via the tau-ladder
POST        ``/v1/simulate``         bounded-horizon simulation summary
==========  =======================  ==========================================

Every request is timed into ``serve.latency_s``, a per-endpoint
``serve.http.latency.<endpoint>`` histogram and — once a tenant is
resolved — ``serve.tenant.<name>.latency``; tenants with an SLO feed the
same latency into their error-budget tracker.  With
``ServeConfig.trace_spans`` on, each request runs under an ``http.<endpoint>``
root span and the serve internals (micro-batcher, cache, engine phases)
attach child spans — see ``docs/observability.md``.

Error mapping: validation failures are 400, unknown tenants/routes 404,
wrong methods 405, oversized bodies 413, a ``Content-Length`` that is not
a non-negative decimal integer or a header line past the stream limit 400
(both answered with ``Connection: close``; a malformed request line just
closes the connection), unexpected exceptions 500 (the
connection survives; ``serve.http.errors`` counts them), and a tenant
whose degradation ladder refuses the request gets **503 with a
``Retry-After`` header** (see ``docs/faults.md``).

The server is single-threaded by design: requests interleave on the
event loop, and ``/v1/simulate`` *blocks* the loop for its (clamped)
horizon — the documented trade-off that makes every shared cache safe
without locks, and the very thing the micro-batcher exploits (requests
queue while the loop is busy, then coalesce into one ``peak_batch``).
"""

from __future__ import annotations

import asyncio
import json
import time
from contextvars import ContextVar
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from .. import records
from ..obs import MetricsRegistry
from ..obs.export import (
    histogram_exposition,
    to_openmetrics,
    trace_waterfall_html,
)
from ..obs.profiling import PhaseProfiler
from ..obs.spans import SpanTracer
from .batch import MicroBatcher, SimulateBatcher
from .cache import ServeCache
from .service import ServeConfig, ThermalService, metric_label

__all__ = ["ThermalServer"]

class _RequestScope:
    """Mutable per-request state carried by :data:`_REQUEST_SCOPE`.

    One instance per served request.  ``_tenant_for`` records the tenant
    it resolved by *mutating* the scope rather than re-``set``-ing the
    ContextVar: the var is set exactly once per request (token captured)
    and reset in a ``finally``, so no request's state can leak into the
    next one on the same connection — the discipline the
    ``async-contextvar-leak`` lint rule checks.
    """

    __slots__ = ("tenant",)

    def __init__(self) -> None:
        self.tenant: Optional[str] = None


#: Scope of the request currently being dispatched; a ContextVar so
#: interleaved requests on the single event loop cannot cross-attribute
#: their latencies.  Set/reset exclusively by ``_handle_connection``.
_REQUEST_SCOPE: ContextVar[Optional[_RequestScope]] = ContextVar(
    "repro_serve_request_scope", default=None
)

#: Path -> short endpoint label for metric names and span names.
_ENDPOINT_LABELS = {
    "/": "root",
    "/metrics": "metrics",
    "/debug/traces": "debug_traces",
    "/v1/tenants": "tenants",
    "/v1/peak": "peak",
    "/v1/tau": "tau",
    "/v1/simulate": "simulate",
}


def _endpoint_of(path: str) -> str:
    """The metric/span label of a request path (prefix-matched)."""
    label = _ENDPOINT_LABELS.get(path)
    if label is not None:
        return label
    if path.startswith("/v1/tenants/"):
        return "tenants"
    return "other"

_JSON = "application/json"
_JSONL = "application/jsonl"
_OPENMETRICS = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: endpoints advertised by ``GET /``
_ENDPOINTS = (
    "GET /",
    "GET /metrics",
    "GET /debug/traces",
    "GET /v1/tenants",
    "POST /v1/tenants",
    "DELETE /v1/tenants/<name>",
    "POST /v1/peak",
    "POST /v1/tau",
    "POST /v1/simulate",
)


class _HttpError(Exception):
    """An error with a definite HTTP status and JSON body."""

    def __init__(self, status: int, message: str, retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after_s = retry_after_s


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ThermalServer:
    """One serving instance: socket, service core, caches, metrics."""

    def __init__(
        self,
        serve_config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        cache: Optional[ServeCache] = None,
    ):
        self.config = serve_config if serve_config is not None else ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = cache if cache is not None else ServeCache()
        self.service = ThermalService(self.config, self.cache)
        self.tracer = SpanTracer(
            enabled=self.config.trace_spans,
            capacity=self.config.trace_capacity,
            sink_path=self.config.trace_path,
        )
        if self.cache.tracer is None:
            self.cache.tracer = self.tracer
        self.batcher = MicroBatcher(
            self.config.batch_window_s, tracer=self.tracer
        )
        # /v1/simulate bursts coalesce one tick's requests and fuse their
        # thermal stepping (repro.sim.batch); parallel.batch.* gauges
        # land in the server registry, never a simulation's own metrics
        self.sim_batcher = SimulateBatcher(
            self.service,
            self.config.batch_window_s,
            tracer=self.tracer,
            metrics=self.registry,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        #: bound TCP port, available after :meth:`start` (ephemeral-port
        #: friendly: pass ``port=0`` and read this back)
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``python -m repro.serve`` main loop)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting connections and release the socket.

        ``self._server`` is detached *before* the await: a concurrent
        ``close`` (or a ``start`` racing a shutdown) interleaving at
        ``wait_closed`` must not see — or re-close — a half-closed
        server (the ``async-shared-mutation`` hazard).
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body, rejected = request
                endpoint = _endpoint_of(path.partition("?")[0])
                scope_token = _REQUEST_SCOPE.set(_RequestScope())
                started = time.perf_counter()
                try:
                    with self.tracer.span(
                        f"http.{endpoint}", root=True, method=method, path=path
                    ) as span:
                        status, payload, extra = await self._dispatch(
                            method, path, headers, body, rejected
                        )
                        span.annotate(status=status)
                    self._observe_latency(
                        endpoint, time.perf_counter() - started
                    )
                finally:
                    _REQUEST_SCOPE.reset(scope_token)
                keep_alive = headers.get("connection", "keep-alive") != "close"
                self._write_response(writer, status, payload, extra, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _observe_latency(self, endpoint: str, elapsed_s: float) -> None:
        """Fold one served request into the latency instruments.

        Always: the overall ``serve.latency_s`` and the per-endpoint
        histogram.  When ``_tenant_for`` resolved a tenant during the
        dispatch: its per-tenant histogram and — if it carries an SLO —
        its error-budget tracker (which may fire the
        ``slo-latency-violation`` detector).
        """
        self.registry.histogram("serve.latency_s", timing=True).observe(
            elapsed_s
        )
        self.registry.histogram(
            f"serve.http.latency.{endpoint}", timing=True
        ).observe(elapsed_s)
        scope = _REQUEST_SCOPE.get()
        tenant_name = scope.tenant if scope is not None else None
        if tenant_name is None:
            return
        self.registry.histogram(
            f"serve.tenant.{metric_label(tenant_name)}.latency", timing=True
        ).observe(elapsed_s)
        try:
            tenant = self.service.tenant(tenant_name)
        except KeyError:
            return
        if tenant.slo is not None:
            now_s = asyncio.get_running_loop().time()
            tenant.slo.observe_latency(now_s, elapsed_s)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes, Optional[_HttpError]]]:
        """Parse one request; ``None`` on a cleanly closed connection.

        A request whose framing cannot be trusted (bad ``Content-Length``,
        oversized body or header line) comes back with its rejection and
        ``Connection: close``: its body is never read, so the connection
        cannot carry another request.
        """
        try:
            request_line = await reader.readline()
        except (ConnectionResetError, asyncio.IncompleteReadError, ValueError):
            # ValueError: a line past the stream limit
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise asyncio.IncompleteReadError(request_line, None)
        method, path, _version = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                headers["connection"] = "close"
                rejected = _HttpError(400, "header line too long")
                return method, path, headers, b"", rejected
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_field = headers.get("content-length", "") or "0"
        if not (length_field.isascii() and length_field.isdigit()):
            headers["connection"] = "close"
            return method, path, headers, b"", _HttpError(
                400, f"invalid Content-Length {length_field[:32]!r}"
            )
        length = int(length_field)
        if length > self.config.max_body_bytes:
            # drain nothing — the 413 response closes the connection
            headers["connection"] = "close"
            rejected = _HttpError(413, "request body exceeds limit")
            return method, path, headers, b"", rejected
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body, None

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        extra_headers: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in extra_headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        rejected: Optional[_HttpError] = None,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """Route one request; never raises (errors become responses).

        ``rejected`` is a framing error :meth:`_read_request` already
        found; it is answered without routing.
        """
        self.registry.counter("serve.http.requests").inc()
        try:
            if rejected is not None:
                raise rejected
            return await self._route(method, path, headers, body)
        except _HttpError as exc:
            if exc.status >= 500:
                self.registry.counter("serve.http.errors").inc()
            extra = {"Content-Type": _JSON}
            if exc.retry_after_s is not None:
                extra["Retry-After"] = str(max(1, round(exc.retry_after_s)))
            payload = _json_bytes({"error": exc.message, "status": exc.status})
            return exc.status, payload, extra
        except Exception as exc:  # unexpected: keep the server alive
            self.registry.counter("serve.http.errors").inc()
            payload = _json_bytes(
                {"error": f"{type(exc).__name__}: {exc}", "status": 500}
            )
            return 500, payload, {"Content-Type": _JSON}

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        path, _, query = path.partition("?")
        if path == "/":
            _require(method, "GET")
            return _json_response(
                {
                    "service": "repro.serve",
                    "paper": "Thermal Management for S-NUCA Many-Cores "
                    "via Synchronous Thread Rotations",
                    "endpoints": list(_ENDPOINTS),
                }
            )
        if path == "/metrics":
            _require(method, "GET")
            return self._metrics_response()
        if path == "/debug/traces":
            _require(method, "GET")
            return self._debug_traces(query)
        if path == "/v1/tenants":
            if method == "GET":
                return _json_response(
                    {
                        "tenants": [
                            self.service.tenant_info(tenant)
                            for tenant in self.service.tenants()
                        ]
                    }
                )
            _require(method, "POST")
            payload = _parse_json(body)
            name = payload.get("name")
            info = _catch_400(
                lambda: self.service.create_tenant(
                    name, payload.get("config"), payload.get("slo")
                )
            )
            return _json_response(info)
        if path.startswith("/v1/tenants/"):
            _require(method, "DELETE")
            name = path[len("/v1/tenants/"):]
            try:
                self.service.delete_tenant(name)
            except KeyError as exc:
                raise _HttpError(404, str(exc)) from exc
            return _json_response({"deleted": name})
        if path == "/v1/peak":
            _require(method, "POST")
            return await self._peak(headers, body)
        if path == "/v1/tau":
            _require(method, "POST")
            return await self._tau(body)
        if path == "/v1/simulate":
            _require(method, "POST")
            return await self._simulate(body)
        raise _HttpError(404, f"no route {path!r}")

    # -- endpoint bodies -----------------------------------------------------

    def _tenant_for(self, payload: Dict[str, Any], endpoint: str):
        name = payload.get("tenant")
        if not isinstance(name, str):
            raise _HttpError(400, "request needs a 'tenant' name")
        try:
            tenant = self.service.tenant(name)
        except KeyError as exc:
            raise _HttpError(404, str(exc)) from exc
        now_s = asyncio.get_running_loop().time()
        wait_s = self.service.blocked_for(tenant, endpoint, now_s)
        if wait_s is not None:
            self.registry.counter("serve.http.rejected_503").inc()
            raise _HttpError(
                503,
                f"tenant {name!r} is {tenant.mode}; retry later",
                retry_after_s=wait_s,
            )
        tenant.requests += 1
        scope = _REQUEST_SCOPE.get()
        if scope is not None:
            scope.tenant = name
        return tenant

    async def _peak(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        if headers.get("content-type", "").startswith(_JSONL):
            return await self._peak_jsonl(body)
        payload = _parse_json(body)
        tenant = self._tenant_for(payload, "peak")
        seqs, taus_s = _catch_400(
            lambda: self.service.parse_candidates(tenant, payload)
        )
        peaks = await self.batcher.evaluate_many(tenant.calculator, seqs, taus_s)
        single = "candidates" not in payload
        return _json_response(
            self.service.peak_payload(tenant, peaks, taus_s, single)
        )

    async def _peak_jsonl(self, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        """Streaming form: header line, then one candidate per JSONL line."""
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _HttpError(400, f"invalid JSONL body: {exc}") from exc
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise _HttpError(400, "empty JSONL body")
        header = _parse_json(lines[0].encode())
        tenant = self._tenant_for(header, "peak")
        seqs, taus_s = [], []
        for line in lines[1:]:
            candidate = _parse_json(line.encode())
            seq, tau_s = _catch_400(
                lambda c=candidate: self.service._parse_candidate(tenant, c)
            )
            seqs.append(seq)
            taus_s.append(tau_s)
        if not seqs:
            raise _HttpError(400, "JSONL body has no candidates")
        peaks = await self.batcher.evaluate_many(tenant.calculator, seqs, taus_s)
        results = self.service.peak_payload(tenant, peaks, taus_s, single=False)
        payload = "\n".join(
            json.dumps(result, sort_keys=True) for result in results["results"]
        ).encode() + b"\n"
        return 200, payload, {"Content-Type": _JSONL}

    async def _tau(self, body: bytes) -> Tuple[int, bytes, Dict[str, str]]:
        payload = _parse_json(body)
        tenant = self._tenant_for(payload, "tau")
        seqs, taus_s = _catch_400(
            lambda: self.service.ladder_candidates(tenant, payload)
        )
        peaks = await self.batcher.evaluate_many(tenant.calculator, seqs, taus_s)
        return _json_response(self.service.tau_payload(tenant, peaks, taus_s))

    async def _simulate(
        self, body: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        payload = _parse_json(body)
        tenant = self._tenant_for(payload, "simulate")
        profiler = PhaseProfiler(enabled=True) if self.tracer.enabled else None
        try:
            # concurrent requests coalesce in the SimulateBatcher and run
            # with fused thermal stepping; each future resolves with its
            # own request's summary or exception
            summary = await self.sim_batcher.simulate(
                tenant, payload, profiler
            )
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from exc
        except _HttpError:
            raise
        except Exception as exc:
            now_s = asyncio.get_running_loop().time()
            mode = self.service.record_simulate_failure(tenant, now_s)
            self.registry.counter("serve.http.errors").inc()
            payload_bytes = _json_bytes(
                {
                    "error": f"simulation failed: {type(exc).__name__}: {exc}",
                    "status": 500,
                    "tenant": tenant.name,
                    "mode": mode,
                }
            )
            return 500, payload_bytes, {"Content-Type": _JSON}
        self.service.record_simulate_success(tenant)
        if profiler is not None:
            self.tracer.record_phases(profiler.summary())
        summary["tenant"] = tenant.name
        return _json_response(summary)

    def _metrics_response(self) -> Tuple[int, bytes, Dict[str, str]]:
        """Refresh the ``serve.*`` gauges and render OpenMetrics.

        Histograms additionally expose their quantiles and cumulative
        log-bucket counts (``<name>.p50`` / ``<name>.bucket.le_*``) so
        ``/metrics`` can answer "how slow are we" per endpoint and tenant.
        """
        for name, value in self.service.gauges().items():
            self.registry.gauge(name).set(value)
        for name, value in self.batcher.stats().items():
            self.registry.gauge(f"serve.{name}").set(value)
        for name, value in self.sim_batcher.stats().items():
            self.registry.gauge(f"serve.{name}").set(value)
        for name, value in self.tracer.stats().items():
            self.registry.gauge(f"serve.{name}").set(value)
        flat = self.registry.snapshot()
        for name, histogram in self.registry.histograms().items():
            flat.update(histogram_exposition(name, histogram))
        text = to_openmetrics(flat)
        return 200, text.encode("utf-8"), {"Content-Type": _OPENMETRICS}

    def _debug_traces(self, query: str) -> Tuple[int, bytes, Dict[str, str]]:
        """Recent request spans: JSON by default, waterfall HTML on demand.

        ``?limit=N`` caps the span count (most recent first in time, 100
        by default); ``?format=html`` renders the self-contained
        trace-waterfall document instead.
        """
        params = parse_qs(query)
        try:
            limit = int(params.get("limit", ["100"])[0])
        except ValueError as exc:
            raise _HttpError(400, f"invalid limit: {exc}") from exc
        if limit < 1:
            raise _HttpError(400, "limit must be a positive integer")
        fmt = params.get("format", ["json"])[0]
        spans = list(self.tracer)[-limit:]
        if fmt == "html":
            html = trace_waterfall_html(spans, title="repro.serve traces")
            return 200, html.encode("utf-8"), {"Content-Type": "text/html"}
        if fmt != "json":
            raise _HttpError(400, f"unknown format {fmt!r}; 'json' or 'html'")
        payload = _json_bytes(
            {
                "enabled": self.tracer.enabled,
                "buffered": len(self.tracer),
                "dropped": self.tracer.dropped,
                "spans": [records.payload("span", vars(span)) for span in spans],
            }
        )
        return 200, payload, {"Content-Type": _JSON}


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise _HttpError(405, f"method {method} not allowed (use {expected})")


def _parse_json(body: bytes) -> Dict[str, Any]:
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise _HttpError(400, f"invalid JSON body: {exc}") from exc
    if not isinstance(payload, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return payload


def _catch_400(fn):
    """Run a service call, translating ``ValueError`` into HTTP 400."""
    try:
        return fn()
    except ValueError as exc:
        raise _HttpError(400, str(exc)) from exc


def _json_bytes(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def _json_response(payload: Dict[str, Any]) -> Tuple[int, bytes, Dict[str, str]]:
    return 200, _json_bytes(payload), {"Content-Type": _JSON}
