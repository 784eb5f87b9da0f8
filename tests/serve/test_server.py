"""Live-server round-trips, micro-batch equivalence, HTTP degradation.

Every test boots a real :class:`~repro.serve.http.ThermalServer` on an
ephemeral port inside ``asyncio.run`` and talks to it over TCP — the
same path ``python -m repro.serve`` serves.
"""

import asyncio
import json

import numpy as np
import pytest

from repro import config
from repro.obs.export import parse_openmetrics
from repro.serve import MicroBatcher, ServeCache, ServeConfig, ThermalServer

from .client import http_request

SMALL = {"mesh_width": 2, "mesh_height": 2}


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


async def _create_tenant(host, port, name, overrides=None):
    status, body = await _post(
        host, port, "/v1/tenants", {"name": name, "config": overrides or SMALL}
    )
    assert status == 200, body
    return body


class TestEndpointRoundTrips:
    def test_discovery_and_tenant_lifecycle(self):
        async def handler(server, host, port):
            status, body = await http_request(host, port, "GET", "/", None)
            doc = json.loads(body)
            assert status == 200
            assert "POST /v1/peak" in doc["endpoints"]

            info = await _create_tenant(host, port, "t0")
            assert info["n_cores"] == 4

            status, body = await http_request(
                host, port, "GET", "/v1/tenants", None
            )
            tenants = json.loads(body)["tenants"]
            assert [t["tenant"] for t in tenants] == ["t0"]

            status, _ = await http_request(
                host, port, "DELETE", "/v1/tenants/t0", None
            )
            assert status == 200
            status, body = await http_request(
                host, port, "GET", "/v1/tenants", None
            )
            assert json.loads(body)["tenants"] == []

        run_server(handler)

    def test_peak_tau_simulate_roundtrip(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            status, peak = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}
            )
            assert status == 200
            assert peak["t_peak_c"] > 45.0  # above ambient
            assert isinstance(peak["sustainable"], bool)

            status, tau = await _post(
                host,
                port,
                "/v1/tau",
                {"tenant": "t0", "power_seq": [[2.0] * 4, [0.1] * 4]},
            )
            assert status == 200
            assert len(tau["ladder"]) == 7  # rotation-off + 6-rung ladder

            status, sim = await _post(
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
            assert sim["tenant"] == "t0"
            assert sim["scheduler"] == "hotpotato"

        run_server(handler)

    def test_peak_jsonl_streaming(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            lines = [json.dumps({"tenant": "t0"})] + [
                json.dumps({"power": [0.5 * (k + 1)] * 4}) for k in range(3)
            ]
            body = ("\n".join(lines) + "\n").encode()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                (
                    f"POST /v1/peak HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Type: application/jsonl\r\n"
                    f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert b"200" in head.splitlines()[0]
            results = [json.loads(line) for line in payload.splitlines() if line]
            assert len(results) == 3
            # more power, hotter peak
            peaks = [r["t_peak_c"] for r in results]
            assert peaks == sorted(peaks)

        run_server(handler)

    def test_error_statuses(self):
        async def handler(server, host, port):
            # unknown route
            status, _ = await http_request(host, port, "GET", "/nope", None)
            assert status == 404
            # wrong method
            status, _ = await http_request(host, port, "POST", "/metrics", {})
            assert status == 405
            # unknown tenant
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "ghost", "power": [1.0] * 4}
            )
            assert status == 404
            # malformed payload
            await _create_tenant(host, port, "t0")
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 3}
            )
            assert status == 400
            # server still healthy afterwards
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}
            )
            assert status == 200

        run_server(handler)

    def test_metrics_exposition_parses(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            await _post(host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4})
            status, body = await http_request(host, port, "GET", "/metrics", None)
            assert status == 200
            metrics = parse_openmetrics(body.decode())
            assert metrics["repro_serve_tenants"] == 1.0
            assert metrics["repro_serve_http_requests"] >= 3.0
            assert "repro_serve_cache_peak_memo_hits" in metrics
            assert "repro_serve_batch_flushes" in metrics

        run_server(handler)


class TestCrossTenantCache:
    def test_shared_config_hits_and_determinism(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "a")
            await _create_tenant(host, port, "b")
            power = [1.3] * 4
            _, first = await _post(
                host, port, "/v1/peak", {"tenant": "a", "power": power}
            )
            _, second = await _post(
                host, port, "/v1/peak", {"tenant": "b", "power": power}
            )
            # same configuration, same candidate: bit-identical answer...
            assert first["t_peak_c"] == second["t_peak_c"]
            # ...served from the shared memo (tenant b hit tenant a's entry)
            stats = server.cache.stats()
            assert stats["peak_memo.hits"] >= 1
            assert stats["calculators.hits"] >= 1

        run_server(handler)

    def test_distinct_threshold_no_cross_hit(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "cool", SMALL)
            await _create_tenant(
                host, port, "warm", dict(SMALL, dtm_threshold_c=80.0)
            )
            power = [1.3] * 4
            _, cool = await _post(
                host, port, "/v1/peak", {"tenant": "cool", "power": power}
            )
            _, warm = await _post(
                host, port, "/v1/peak", {"tenant": "warm", "power": power}
            )
            # distinct calibrations: distinct dynamics entries, no sharing
            assert server.cache.stats()["dynamics.misses"] == 2
            # different T_DTM -> different sustainability verdicts are
            # possible; the headroom reflects each tenant's own threshold
            assert warm["headroom_c"] == pytest.approx(
                cool["headroom_c"] + 10.0 - (warm["t_peak_c"] - cool["t_peak_c"])
            )

        run_server(handler)


class TestMicroBatching:
    def test_concurrent_requests_coalesce(self):
        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            payloads = [
                {"tenant": "t0", "power": [0.2 * (k + 1)] * 4} for k in range(6)
            ]
            results = await asyncio.gather(
                *(_post(host, port, "/v1/peak", p) for p in payloads)
            )
            assert all(status == 200 for status, _ in results)
            assert server.batcher.requests >= 6
            # at least one flush served several candidates at once
            assert server.batcher.coalesced >= 2
            assert server.batcher.flushes < server.batcher.requests

        run_server(handler)

    def test_batched_equals_sequential_bitwise(self):
        """Coalesced single-epoch answers are bit-for-bit the sequential
        ones; multi-epoch (delta > 1) answers may move in the last bit,
        because a wider stack changes BLAS's summation order."""
        cfg = config.small_test()
        calculator = ServeCache().calculator_for(cfg)
        rng = np.random.default_rng(42)
        seqs = [rng.uniform(0.2, 2.0, (1, cfg.n_cores)) for _ in range(8)]
        taus = [None, 0.001, 0.002, None, 0.0005, 0.001, None, 0.004]
        # two (tau, delta) groups, each spanning both coalesced calls
        multi_taus = [0.001, 0.0005] * 4
        multi = [
            rng.uniform(0.2, 2.0, (delta, cfg.n_cores))
            for delta in (4, 8, 4, 8, 4, 8, 4, 8)
        ]

        async def batched():
            batcher = MicroBatcher()
            halves = await asyncio.gather(
                batcher.evaluate_many(
                    calculator, seqs[:4] + multi[:4], taus[:4] + multi_taus[:4]
                ),
                batcher.evaluate_many(
                    calculator, seqs[4:] + multi[4:], taus[4:] + multi_taus[4:]
                ),
            )
            assert batcher.flushes == 1  # both calls coalesced
            return halves[0][:4] + halves[1][:4], halves[0][4:] + halves[1][4:]

        coalesced, coalesced_multi = asyncio.run(batched())
        # a fresh calculator, so no answer comes from the batched run's memo
        reference = ServeCache().calculator_for(cfg)

        def sequential(candidates, candidate_taus):
            return [
                float(reference.peak_batch([seq], [tau])[0])
                for seq, tau in zip(candidates, candidate_taus)
            ]

        assert coalesced == sequential(seqs, taus)  # exact, not approx
        np.testing.assert_allclose(
            coalesced_multi, sequential(multi, multi_taus), rtol=0, atol=1e-9
        )

    def test_batch_error_propagates_per_group(self):
        class Broken:
            def peak_batch(self, seqs, taus):
                raise RuntimeError("boom")

        async def main():
            batcher = MicroBatcher()
            with pytest.raises(RuntimeError, match="boom"):
                await batcher.evaluate_many(
                    Broken(), [np.ones((1, 4))], [None]
                )

        asyncio.run(main())


class TestSimulateBatching:
    """Coalesced /v1/simulate bursts run fused and stay byte-identical."""

    PAYLOADS = [
        {
            "tenant": "t0",
            "max_time_s": 0.02,
            "scheduler": "hotpotato",
            "workload": {"kind": "homogeneous", "seed": 1},
        },
        {
            "tenant": "t0",
            "max_time_s": 0.02,
            "scheduler": "pcmig",
            "workload": {"kind": "homogeneous", "seed": 1},
        },
        {
            "tenant": "t0",
            "max_time_s": 0.03,  # distinct horizon within one burst
            "scheduler": "hotpotato",
            "workload": {"kind": "mixed", "seed": 3, "n_tasks": 3},
        },
    ]

    def test_burst_equals_sequential_bitwise(self):
        serve_config = ServeConfig(port=0, batch_window_s=0.1)

        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            sequential = []
            for payload in self.PAYLOADS:
                status, body = await _post(
                    host, port, "/v1/simulate", payload
                )
                assert status == 200
                sequential.append(body)
            assert server.sim_batcher.simulate_fused == 0

            burst = await asyncio.gather(
                *(
                    _post(host, port, "/v1/simulate", p)
                    for p in self.PAYLOADS
                )
            )
            assert all(status == 200 for status, _ in burst)
            # the burst coalesced and its bodies (floats included) are
            # exactly the sequential ones
            assert server.sim_batcher.simulate_fused >= 2
            assert [body for _, body in burst] == sequential
            snapshot = server.registry.snapshot()
            assert snapshot["parallel.batch.width_initial"] >= 2
            assert snapshot["parallel.batch.fused_updates"] >= 1

        run_server(handler, serve_config)

    def test_burst_isolates_per_request_failures(self):
        serve_config = ServeConfig(port=0, batch_window_s=0.1)

        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            good = self.PAYLOADS[0]
            bad = dict(good, scheduler="does-not-exist")
            (s_good, body_good), (s_bad, body_bad) = await asyncio.gather(
                _post(host, port, "/v1/simulate", good),
                _post(host, port, "/v1/simulate", bad),
            )
            assert s_good == 200
            assert body_good["scheduler"] == "hotpotato"
            assert s_bad == 400
            assert "unknown scheduler" in body_bad["error"]
            # a validation error is the caller's fault, not a simulate
            # failure: the tenant's degradation ladder must not move
            assert server.service.tenant("t0").mode == "normal"

        run_server(handler, serve_config)


class TestDegradationOverHttp:
    def test_simulate_failure_maps_to_503_retry_after(self, monkeypatch):
        serve_config = ServeConfig(port=0, retry_after_s=30.0)

        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")

            def explode(tenant, payload):
                raise RuntimeError("injected fault")

            monkeypatch.setattr(server.service, "simulate", explode)
            sim = {"tenant": "t0", "workload": {"kind": "homogeneous"}}
            status, body = await _post(host, port, "/v1/simulate", sim)
            assert status == 500
            assert body["mode"] == "degraded"

            # degraded: simulate refused with Retry-After, peak still works
            reader, writer = await asyncio.open_connection(host, port)
            raw = json.dumps(sim).encode()
            writer.write(
                (
                    f"POST /v1/simulate HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: {len(raw)}\r\nConnection: close\r\n\r\n"
                ).encode()
                + raw
            )
            await writer.drain()
            response = await reader.read()
            writer.close()
            await writer.wait_closed()
            head = response.split(b"\r\n\r\n")[0].decode()
            assert "503" in head.splitlines()[0]
            assert any(
                line.lower().startswith("retry-after:")
                for line in head.splitlines()
            )
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 4}
            )
            assert status == 200

        run_server(handler, serve_config)

    def test_safe_park_blocks_everything_until_recovery(self, monkeypatch):
        serve_config = ServeConfig(
            port=0, retry_after_s=0.0, park_after_failures=2
        )

        async def handler(server, host, port):
            await _create_tenant(host, port, "t0")
            calls = {"n": 0}
            real = server.service.simulate

            def flaky(tenant, payload):
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise RuntimeError("transient")
                return real(tenant, payload)

            monkeypatch.setattr(server.service, "simulate", flaky)
            sim = {
                "tenant": "t0",
                "max_time_s": 0.002,
                "workload": {"kind": "homogeneous"},
            }
            # two failures -> safe-park (cooldown 0 keeps the test instant:
            # the mode label sticks until a success, but requests re-admit)
            for _ in range(2):
                status, _ = await _post(host, port, "/v1/simulate", sim)
                assert status == 500
            assert server.service.tenant("t0").mode == "safe-park"
            # third attempt succeeds and resets the ladder
            status, body = await _post(host, port, "/v1/simulate", sim)
            assert status == 200
            assert server.service.tenant("t0").mode == "normal"
            gauges = server.service.gauges()
            assert gauges["serve.degradation.to_safe_park"] == 1.0
            assert gauges["serve.simulate.failures"] == 2.0

        run_server(handler, serve_config)

    def test_oversized_body_rejected(self):
        serve_config = ServeConfig(port=0, max_body_bytes=64)

        async def handler(server, host, port):
            status, _ = await _post(
                host, port, "/v1/peak", {"tenant": "t0", "power": [1.0] * 64}
            )
            assert status == 413

        run_server(handler, serve_config)
