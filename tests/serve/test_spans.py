"""End-to-end tracing through the serve stack: propagation, SLO, debug.

The tentpole guarantees under test (``docs/observability.md``):

- tracing is **off by default** and responses are byte-identical with it
  on or off (metamorphic);
- N concurrent requests through the :class:`MicroBatcher` yield exactly
  N request spans linked to one ``batch.flush`` span, no orphans;
- ``/debug/traces`` serves the span buffer as JSON;
- ``/metrics`` exposes per-endpoint/per-tenant latency quantiles and
  buckets.
"""

import asyncio
import json

import pytest

from repro.obs.detect import SpanOrphanDetector
from repro.obs.export import parse_openmetrics
from repro.serve import MicroBatcher, ServeConfig, ThermalServer

from .client import http_request

SMALL = {"mesh_width": 2, "mesh_height": 2}

TRACED = ServeConfig(port=0, trace_spans=True)


def run_server(handler, serve_config=None):
    """Boot a server, run ``handler(server, host, port)``, tear down."""

    async def main():
        server = ThermalServer(serve_config or ServeConfig(port=0))
        await server.start()
        try:
            return await handler(server, server.config.host, server.port)
        finally:
            await server.close()

    return asyncio.run(main())


async def _post(host, port, path, payload):
    status, body = await http_request(host, port, "POST", path, payload)
    return status, json.loads(body) if body else {}


async def _create_tenant(host, port, name, overrides=None, slo=None):
    payload = {"name": name, "config": overrides or SMALL}
    if slo is not None:
        payload["slo"] = slo
    status, body = await _post(host, port, "/v1/tenants", payload)
    assert status == 200, body
    return body


class TestDisabledByDefault:
    def test_default_config_records_nothing(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}
            )
            assert status == 200
            assert not server.tracer.enabled
            assert len(server.tracer) == 0
            assert server.tracer.finished == 0

        run_server(handler)

    def test_responses_byte_identical_with_tracing_on(self):
        """Metamorphic: tracing must not perturb a single response byte."""

        requests = [
            ("POST", "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}),
            (
                "POST",
                "/v1/peak",
                {
                    "tenant": "t0",
                    "candidates": [
                        {"power": [0.5] * 4},
                        {"power_seq": [[2.0] * 4, [0.1] * 4], "tau_s": 0.001},
                    ],
                },
            ),
            (
                "POST",
                "/v1/tau",
                {"tenant": "t0", "power_seq": [[2.0] * 4, [0.1] * 4]},
            ),
            (
                "POST",
                "/v1/simulate",
                {
                    "tenant": "t0",
                    "max_time_s": 0.005,
                    "workload": {"kind": "homogeneous", "seed": 1},
                },
            ),
            ("GET", "/v1/tenants", None),
        ]

        def collect(serve_config):
            async def handler(server, host, port):
                await _create_tenant(host, port, "t0")
                bodies = []
                for method, path, payload in requests:
                    status, body = await http_request(
                        host, port, method, path, payload
                    )
                    assert status == 200
                    bodies.append(body)
                return bodies

            return run_server(handler, serve_config)

        untraced = collect(ServeConfig(port=0))
        traced = collect(ServeConfig(port=0, trace_spans=True))
        assert untraced == traced


class TestConcurrentPropagation:
    N = 5

    def test_n_requests_one_flush_span_n_links(self):
        """The satellite contract, end to end over TCP: N concurrent
        tenants coalesce into batch flushes whose links cover exactly the
        N request spans, and the span set has no orphans."""

        async def handler(server, host, port):
            for index in range(self.N):
                await _create_tenant(host, port, f"t{index}")
            results = await asyncio.gather(
                *(
                    _post(
                        host,
                        port,
                        "/v1/peak",
                        {"tenant": f"t{index}", "power": [1.0] * 4},
                    )
                    for index in range(self.N)
                )
            )
            assert all(status == 200 for status, _ in results)
            return list(server.tracer)

        spans = run_server(handler, TRACED)
        requests = [s for s in spans if s.name == "http.peak"]
        flushes = [s for s in spans if s.name == "batch.flush"]
        assert len(requests) == self.N
        # every request span is linked from exactly one flush
        linked = sorted(link for flush in flushes for link in flush.links)
        assert linked == sorted(s.span_id for s in requests)
        assert SpanOrphanDetector().check(spans) == []

    def test_direct_batcher_single_flush(self):
        """Without TCP interleaving, one gather = one flush linking all
        N origins (call_soon runs after every enqueue of the tick)."""
        from repro.obs.spans import SpanTracer
        from repro.thermal.calibrate import calibrated_model
        from repro.thermal.matex import ThermalDynamics
        from repro.core.peak_temperature import PeakTemperatureCalculator
        from repro import config

        cfg = config.SystemConfig(mesh_width=2, mesh_height=2)
        calculator = PeakTemperatureCalculator(
            ThermalDynamics(calibrated_model(cfg)), cfg.thermal.ambient_c
        )
        tracer = SpanTracer(enabled=True)
        batcher = MicroBatcher(tracer=tracer)
        seq = [[1.0] * 4]

        async def request(index):
            with tracer.span(f"request{index}"):
                return await batcher.evaluate_many(calculator, [seq], [None])

        async def main():
            return await asyncio.gather(*(request(i) for i in range(4)))

        results = asyncio.run(main())
        assert len({peaks[0] for peaks in results}) == 1  # identical answers
        assert batcher.flushes == 1
        spans = list(tracer)
        flushes = [s for s in spans if s.name == "batch.flush"]
        origins = sorted(
            s.span_id for s in spans if s.name.startswith("request")
        )
        assert len(flushes) == 1
        assert sorted(flushes[0].links) == origins
        assert SpanOrphanDetector().check(spans) == []

    def test_simulate_attaches_engine_phase_spans(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            status, _ = await _post(
                host,
                port,
                "/v1/simulate",
                {
                    "tenant": "t0",
                    "max_time_s": 0.005,
                    "workload": {"kind": "homogeneous", "seed": 1},
                },
            )
            assert status == 200
            return list(server.tracer)

        spans = run_server(handler, TRACED)
        request = next(s for s in spans if s.name == "http.simulate")
        phases = [s for s in spans if s.name.startswith("phase.")]
        assert phases, "engine phases should surface as spans"
        assert all(s.parent_id == request.span_id for s in phases)
        assert "phase.thermal.step" in {s.name for s in phases}

    def test_cache_eigendecomposition_span_once(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "a")
            await _create_tenant(host, port, "b")  # same config: cache hit
            return list(server.tracer)

        spans = run_server(handler, TRACED)
        eigen = [s for s in spans if s.name == "cache.eigendecomposition"]
        assert len(eigen) == 1
        tenants = [s for s in spans if s.name == "http.tenants"]
        assert eigen[0].parent_id is not None
        assert eigen[0].trace_id in {s.trace_id for s in tenants}


class TestDebugTracesEndpoint:
    def test_json_view(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}
            )
            status, body = await http_request(
                host, port, "GET", "/debug/traces?limit=500", None
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["enabled"] is True
            names = {span["name"] for span in payload["spans"]}
            assert "http.peak" in names and "batch.flush" in names

        run_server(handler, TRACED)

    def test_limit_and_format_validation(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            status, body = await http_request(
                host, port, "GET", "/debug/traces?limit=1", None
            )
            assert len(json.loads(body)["spans"]) == 1

            status, _ = await http_request(
                host, port, "GET", "/debug/traces?limit=zero", None
            )
            assert status == 400
            for fmt in ("yaml", "html"):
                status, _ = await http_request(
                    host, port, "GET", f"/debug/traces?format={fmt}", None
                )
                assert status == 400

        run_server(handler, TRACED)

    def test_disabled_tracer_serves_empty(self):
        async def handler(server, host, port):
            status, body = await http_request(
                host, port, "GET", "/debug/traces", None
            )
            assert status == 200
            payload = json.loads(body)
            assert payload == {
                "enabled": False,
                "buffered": 0,
                "dropped": 0,
                "spans": [],
            }

        run_server(handler)


class TestLatencyMetrics:
    def test_per_endpoint_and_tenant_quantiles_exposed(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            for _ in range(3):
                await _post(
                    host,
                    port,
                    "/v1/peak",
                    {"tenant": "t0", "power": [1.0] * 4},
                )
            status, body = await http_request(
                host, port, "GET", "/metrics", None
            )
            assert status == 200
            return parse_openmetrics(body.decode())

        metrics = run_server(handler)
        p50 = metrics["repro_serve_http_latency_peak_p50"]
        p99 = metrics["repro_serve_http_latency_peak_p99"]
        assert 0.0 < p50 <= p99
        assert metrics["repro_serve_tenant_t0_latency_count"] == 3.0
        assert "repro_serve_tenant_t0_latency_p99" in metrics
        # cumulative buckets end at the total count
        assert (
            metrics["repro_serve_http_latency_peak_bucket_le_inf"] == 3.0
        )

    def test_slo_gauges_and_violation_fire_once(self):
        """Known-answer: an impossible 1ns SLO with a 50% budget over two
        requests exhausts on the second — exactly one violation."""

        async def handler(server, host, port):
            await _create_tenant(
                host,
                port,
                "t0",
                slo={"latency_s": 1e-9, "error_budget": 0.5},
            )
            for _ in range(4):
                await _post(
                    host,
                    port,
                    "/v1/peak",
                    {"tenant": "t0", "power": [1.0] * 4},
                )
            status, body = await http_request(
                host, port, "GET", "/metrics", None
            )
            tenant = server.service.tenant("t0")
            return parse_openmetrics(body.decode()), tenant.slo

        metrics, slo = run_server(handler)
        assert len(slo.violations) == 1
        assert slo.violations[0].detector == "slo-latency-violation"
        assert metrics["repro_serve_tenant_t0_slo_violations"] == 1.0
        assert metrics["repro_serve_tenant_t0_slo_budget_used"] >= 1.0

    def test_tenant_info_reports_slo(self):
        async def handler(server, host, port):
            info = await _create_tenant(
                host, port, "t0", slo={"latency_s": 0.25}
            )
            assert info["slo"]["latency_target_s"] == 0.25
            assert info["slo"]["error_budget"] == 0.01  # server default
            assert info["slo"]["violations"] == 0

            status, body = await _post(
                host,
                port,
                "/v1/tenants",
                {"name": "bad", "slo": {"latency_s": -1.0}},
            )
            assert status == 400
            status, body = await _post(
                host,
                port,
                "/v1/tenants",
                {"name": "bad", "slo": {"nonsense": 1.0}},
            )
            assert status == 400

        run_server(handler)

