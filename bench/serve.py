"""The ``serve-mixed`` workload: the real server under open- then closed-loop load.

The server is the ``python -m repro.serve --port 0`` CLI entry point, run
by :mod:`bench.serve_host` so a speed probe samples the server process
(and, traced, with the layer timers), spawned with unbuffered output so
its "listening on" line reaches the pipe.  Server-side times (latency,
block time, set-up) are rescaled to reference speed with the server's
probe samples, as sweep times are with the worker's.  Four tenants over two
configurations (4x4 mesh, T_DTM 70 / 75 degC) are created, then one
asyncio process drives two keep-alive connections:

- **phase A**, open loop: 500 requests due at Poisson times, 40 req/s.
  Each is written when due (pipelined on the connection with fewer
  requests outstanding), so a stall shows as latency of the requests
  behind it.  Latency runs from the *due* time; a failed request counts
  as infinitely late.  When the generator's lateness (write time minus
  due time) exceeds 5 ms at p99 the phase is repeated, up to three
  attempts, and the most punctual one is kept; if all three ran late the
  measurement is marked invalid (``python -m bench run`` then exits 1).
- **phase B**, closed loop: each connection keeps two requests in flight
  for the rest of the run, so the server, not the generator, bounds it;
  ``wall_s`` is the median time to complete a block of 100.

The request mix is ``repro.serve.loadgen``'s (60 % peak, 20 % tau, 10 %
simulate at a 20 ms horizon, 10 % metrics, 8 pooled power vectors per
configuration), but every block of 100 requests holds that mix exactly,
shuffled by the seed, so a run's cost does not move with the draw.  We
have no production traffic; the mix is stated, not measured.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import ROOT, SETUP_SPAWNS, child_env
from .golden import load as load_golden
from .layers import layer_metrics
from .probe import SpeedProbe
from .stats import percentile, tail_percentile

#: request kinds and their count in every block of ``BLOCK`` requests
MIX = (("peak", 60), ("tau", 20), ("simulate", 10), ("metrics", 10))
BLOCK = 100
RATE_PER_S = 40.0
#: whole blocks, so phase A's mix is exact too
PHASE_A_REQUESTS = 500
MIN_PHASE_B_S = 4.0
CONNECTIONS = 2
PIPELINE_DEPTH = 2
N_TENANTS = 4
N_CONFIGS = 2
POOL_SIZE = 8
MESH = 4
SIMULATE_HORIZON_S = 0.02
LATE_LIMIT_MS = 5.0
PHASE_A_ATTEMPTS = 3
SPIN_S = 0.002
#: a spawned server must print its "listening on" line within this
START_TIMEOUT_S = 60.0
#: the whole load (warm-up, both phases, scrape) must end within this
DRIVE_TIMEOUT_S = 120.0
#: Served answers are not bit-stable: ``peak_batch`` results move in the
#: last bit with the other candidates coalesced into the same batch (54
#: of 1400 tau-ladder candidates differed when batched with one other
#: request).  Checks therefore compare floats to ``REL_TOL`` and the
#: golden digest rounds them to ``DIGEST_DIGITS`` significant digits.
REL_TOL = 1e-9
DIGEST_DIGITS = 8


@dataclass(frozen=True)
class Request:
    kind: str
    method: str
    path: str
    body: bytes

    def wire(self) -> bytes:
        head = (
            f"{self.method} {self.path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(self.body)}\r\n\r\n"
        )
        return head.encode("latin-1") + self.body


def _post(kind: str, path: str, payload: Dict[str, Any]) -> Request:
    return Request(kind, "POST", path, json.dumps(payload, sort_keys=True).encode())


def tenant_requests() -> List[Request]:
    return [
        _post(
            "tenant",
            "/v1/tenants",
            {
                "name": f"tenant-{i}",
                "config": {
                    "mesh_width": MESH,
                    "mesh_height": MESH,
                    "dtm_threshold_c": 70.0 + 5.0 * (i % N_CONFIGS),
                },
            },
        )
        for i in range(N_TENANTS)
    ]


def power_pools(seed: int) -> List[List[List[float]]]:
    rng = random.Random(f"{seed}:pools")
    return [
        [[rng.uniform(0.5, 2.0) for _ in range(MESH * MESH)] for _ in range(POOL_SIZE)]
        for _ in range(N_CONFIGS)
    ]


def make_request(kind: str, tenant: int, power: List[float], sim_seed: int) -> Request:
    name = f"tenant-{tenant}"
    if kind == "metrics":
        return Request(kind, "GET", "/metrics", b"")
    if kind == "peak":
        return _post(kind, "/v1/peak", {"tenant": name, "power": power})
    if kind == "tau":
        n = len(power)
        seq = [power[-shift:] + power[:-shift] for shift in range(0, n, n // 4)]
        return _post(kind, "/v1/tau", {"tenant": name, "power_seq": seq})
    return _post(
        kind,
        "/v1/simulate",
        {
            "tenant": name,
            "scheduler": "hotpotato",
            "max_time_s": SIMULATE_HORIZON_S,
            "workload": {"kind": "homogeneous", "seed": sim_seed},
        },
    )


def request_tape(seed: int, stream: str) -> Iterator[Request]:
    """Endless requests, each block of ``BLOCK`` holding ``MIX`` exactly."""
    rng = random.Random(f"{seed}:{stream}")
    pools = power_pools(seed)
    while True:
        kinds = [kind for kind, count in MIX for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            tenant = rng.randrange(N_TENANTS)
            power = pools[tenant % N_CONFIGS][rng.randrange(POOL_SIZE)]
            yield make_request(kind, tenant, power, rng.randrange(1 << 16))


def warmup_requests(seed: int) -> List[Request]:
    """One request of every kind per tenant: imports and caches warm up."""
    pools = power_pools(seed)
    return [
        make_request(kind, tenant, pools[tenant % N_CONFIGS][0], 0)
        for tenant in range(N_TENANTS)
        for kind, _ in MIX
    ]


def due_times(seed: int, n: int) -> List[float]:
    rng = random.Random(f"{seed}:arrivals")
    times, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(RATE_PER_S)
        times.append(t)
    return times


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    line = await reader.readline()
    if not line:
        raise asyncio.IncompleteReadError(b"", None)
    status = int(line.split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


class Connection:
    """One keep-alive connection with pipelined requests.

    The server answers a connection's requests in order, so responses
    are matched to requests first-in first-out.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.waiting: deque = deque()
        self._reading = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    def send(self, request: Request) -> "asyncio.Future":
        """Write a request now; the future yields (status, body, done time)."""
        future = asyncio.get_running_loop().create_future()
        self.waiting.append(future)
        self.writer.write(request.wire())
        return future

    async def _read(self) -> None:
        try:
            while True:
                status, body = await read_response(self.reader)
                self.waiting.popleft().set_result((status, body, time.perf_counter()))
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            while self.waiting:
                self.waiting.popleft().set_exception(ConnectionError(f"connection lost: {exc!r}"))

    async def close(self) -> None:
        self.writer.close()
        self._reading.cancel()
        try:
            await self._reading
        except asyncio.CancelledError:
            pass
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def _send_all(conn: Connection, requests: List[Request]) -> List[Tuple[int, bytes]]:
    """Closed loop on one connection; returns (status, body) per request."""
    out = []
    for request in requests:
        status, body, _ = await conn.send(request)
        out.append((status, body))
    return out


async def create_tenants(port: int) -> None:
    conn = await Connection.open(port)
    try:
        for status, body in await _send_all(conn, tenant_requests()):
            if status != 200:
                raise RuntimeError(f"tenant creation failed: HTTP {status} {body[:200]!r}")
    finally:
        await conn.close()


# -- the spawned server ------------------------------------------------------


class Server:
    """A :mod:`bench.serve_host` subprocess (the CLI, or the traced host)."""

    def __init__(self, traced: bool):
        command = [sys.executable, "-m", "bench.serve_host"] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start (got {line!r})")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def stop(self, timeout_s: float = 30.0) -> Dict[str, Any]:
        """SIGINT, reap, and return the host's report."""
        # give handlers of just-closed connections time to finish: the CLI
        # logs a CancelledError traceback for each one still open at SIGINT
        time.sleep(0.1)
        self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"server exited with {self.proc.returncode} and no report")
        return json.loads(lines[-1])


def spawn_ready(traced: bool) -> Tuple[Server, Tuple[float, float]]:
    """Start a server and create the tenants; returns it and the
    (spawn, ready) instants."""
    start = time.perf_counter()
    server = Server(traced)
    try:
        asyncio.run(create_tenants(server.port))
    except BaseException:
        server.stop()
        raise
    return server, (start, time.perf_counter())


# -- the load ----------------------------------------------------------------


async def _open_loop(conns: List[Connection], tape: List[Request], dues: List[float]):
    """Send each request when due; (request, due, write, status, body,
    done) per request, ``done = inf`` for a broken connection."""
    origin = time.perf_counter() + 0.05
    sent: List[Tuple[float, float, "asyncio.Future"]] = []
    for request, due in zip(tape, dues):
        # the selector's timeout has millisecond granularity: sleep to
        # within SPIN_S of the due time, then spin (still serving
        # responses) so requests leave on time
        delay = origin + due - time.perf_counter() - SPIN_S
        if delay > 0:
            await asyncio.sleep(delay)
        while time.perf_counter() < origin + due:
            await asyncio.sleep(0)
        conn = min(conns, key=lambda c: len(c.waiting))
        sent.append((origin + due, time.perf_counter(), conn.send(request)))
    outcomes = await asyncio.gather(*(f for _, _, f in sent), return_exceptions=True)
    records = []
    for (due, write, _), outcome, request in zip(sent, outcomes, tape):
        if isinstance(outcome, BaseException):
            records.append((request, due, write, 0, b"", math.inf))
        else:
            status, body, done = outcome
            records.append((request, due, write, status, body, done))
    return records


def lateness_p99_ms(phase_a) -> float:
    """p99 of write time minus due time: how late the generator ran."""
    return percentile([(write - due) * 1e3 for _, due, write, _, _, _ in phase_a], 99.0)


async def drive(
    port: int,
    seed: int,
    phase_b_s: float,
    toggle_pid: Optional[int] = None,
    phase_a_requests: int = PHASE_A_REQUESTS,
) -> Dict[str, Any]:
    """Warm-up, phase A, phase B and a final ``/metrics`` scrape.

    With ``toggle_pid`` (the traced host) phase B alternates untraced and
    traced blocks by signalling the server at each block boundary.
    """
    conns = [await Connection.open(port) for _ in range(CONNECTIONS)]
    # a collection in this process stalls the generator: measured, it
    # made requests leave up to 25 ms late (p99 8.6 ms) instead of 0.2 ms
    gc.disable()
    try:
        await _send_all(conns[0], warmup_requests(seed))

        tape = list(itertools.islice(request_tape(seed, "phase-a"), phase_a_requests))
        dues = due_times(seed, phase_a_requests)
        # when the host deschedules this process (steal time) requests
        # leave late and the phase measures the host: repeat it, and keep
        # the attempt that ran closest to schedule
        attempts = []
        while len(attempts) < PHASE_A_ATTEMPTS:
            attempts.append(await _open_loop(conns, tape, dues))
            if lateness_p99_ms(attempts[-1]) <= LATE_LIMIT_MS:
                break
        phase_a = min(attempts, key=lateness_p99_ms)

        if toggle_pid is not None:
            os.kill(toggle_pid, signal.SIGUSR1)
        closed = request_tape(seed, "phase-b")
        completions: List[Tuple[float, int]] = []
        begin = time.perf_counter()
        deadline = begin + phase_b_s

        async def client(conn: Connection) -> None:
            while time.perf_counter() < deadline:
                try:
                    status, _, done = await conn.send(next(closed))
                except ConnectionError:
                    completions.append((time.perf_counter(), 0))
                    return
                completions.append((done, status))
                if toggle_pid is not None and len(completions) % BLOCK == 0:
                    traced_next = (len(completions) // BLOCK) % 2 == 1
                    os.kill(toggle_pid, signal.SIGUSR2 if traced_next else signal.SIGUSR1)

        await asyncio.gather(*(client(c) for c in conns for _ in range(PIPELINE_DEPTH)))
        if toggle_pid is not None:
            os.kill(toggle_pid, signal.SIGUSR2)
        (status, metrics_body), = await _send_all(conns[0], [Request("metrics", "GET", "/metrics", b"")])
    finally:
        gc.enable()
        for conn in conns:
            await conn.close()
    return {
        "phase_a": phase_a,
        "phase_a_attempts": len(attempts),
        "phase_b_begin": begin,
        "phase_b": completions,
        "metrics": metrics_body.decode("utf-8") if status == 200 else "",
    }


def block_edges(
    begin: float, completions: List[Tuple[float, int]]
) -> List[Tuple[float, float]]:
    """(start, end) of each run of ``BLOCK`` closed-loop completions."""
    times = sorted(t for t, _ in completions)
    edges = [begin] + [times[i] for i in range(BLOCK - 1, len(times), BLOCK)]
    return list(zip(edges[:-1], edges[1:]))


def scrape(text: str, name: str) -> float:
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == name:
            return float(parts[1])
    return 0.0


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def _close(a: Any, b: Any) -> bool:
    """Equal JSON values, floats within ``REL_TOL``."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b and type(a) is type(b)


def body_digest(phase_a) -> str:
    """SHA-256 over the peak / tau / simulate response bodies, tape order,
    with floats rounded to ``DIGEST_DIGITS`` significant digits."""
    digest = hashlib.sha256()
    for request, _, _, _, body, _ in phase_a:
        if request.kind != "metrics":
            digest.update(json.dumps(_rounded(json.loads(body)), sort_keys=True).encode())
    return digest.hexdigest()


def reference_check(phase_a) -> List[str]:
    """Replay each distinct answered request, one at a time, against an
    in-process server; every measured answer must match its replay."""
    from repro.serve.http import ThermalServer
    from repro.serve.service import ServeConfig

    measured: Dict[Request, bytes] = {}
    problems: List[str] = []
    for request, _, _, status, body, _ in phase_a:
        if request.kind == "metrics" or status != 200:
            continue
        first = measured.setdefault(request, body)
        if not _close(json.loads(first), json.loads(body)):
            problems.append(f"{request.path}: two answers to one request")

    server = ThermalServer(ServeConfig(port=0))

    async def replay() -> Dict[Request, bytes]:
        await server.start()
        try:
            await create_tenants(server.port)
            conn = await Connection.open(server.port)
            try:
                requests = list(measured)
                answers = await _send_all(conn, requests)
            finally:
                await conn.close()
            # let the server's connection handlers see EOF and finish, or
            # asyncio.run cancels them mid-close and logs the cancellation
            await asyncio.sleep(0.1)
        finally:
            await server.close()
        return {r: body for r, (_, body) in zip(requests, answers)}

    for request, body in asyncio.run(replay()).items():
        served = measured[request]
        if not _close(json.loads(served), json.loads(body)):
            at = next(
                (i for i, (a, b) in enumerate(zip(served, body)) if a != b),
                min(len(served), len(body)),
            )
            problems.append(
                f"{request.path} {request.body[:60]!r}: served ...{served[at - 40:at + 40]!r}, "
                f"replayed ...{body[at - 40:at + 40]!r}"
            )
    return problems


def measure(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One serve-mixed run; the dict the ``measure`` command reports."""
    setup = []
    if not trace:
        for _ in range(SETUP_SPAWNS - 1):
            server, (spawned, ready) = spawn_ready(traced=False)
            probe = SpeedProbe.from_samples(server.stop()["probe"])
            setup.append(probe.scaled(spawned, ready)[0])
    server, (spawned, ready) = spawn_ready(traced=trace)
    phase_b_s = max(MIN_PHASE_B_S, seconds - PHASE_A_REQUESTS / RATE_PER_S)
    try:
        load = asyncio.run(
            asyncio.wait_for(
                drive(server.port, seed, phase_b_s, server.proc.pid if trace else None),
                timeout=DRIVE_TIMEOUT_S,
            )
        )
    finally:
        report = server.stop()

    # the server's own speed samples put its time on the reference scale
    probe = SpeedProbe.from_samples(report["probe"])
    setup.append(probe.scaled(spawned, ready)[0])
    phase_a = load["phase_a"]
    latencies = [
        probe.scaled(due, done)[0] * 1e3 if status == 200 else math.inf
        for _, due, _, status, _, done in phase_a
    ]
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for (request, *_), latency in zip(phase_a, latencies):
        by_kind[request.kind].append(latency)
    blocks = [
        probe.scaled(a, b)[0]
        for a, b in block_edges(load["phase_b_begin"], load["phase_b"])
    ]
    failed = sum(1 for _, _, _, s, _, _ in phase_a if s != 200)
    failed += sum(1 for _, s in load["phase_b"] if s != 200)
    out: Dict[str, Any] = {
        "workload": "serve-mixed",
        "attempted": len(phase_a) + len(load["phase_b"]),
        "failed": failed,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": report["peak_rss_mb"],
        "p50_ms": percentile(latencies, 50.0),
        "p95_ms": percentile(latencies, 95.0),
        "phase_a_samples": len(latencies),
        "gen_late_p99_ms": lateness_p99_ms(phase_a),
        "phase_a_attempts": load["phase_a_attempts"],
        "blocks": blocks,
        "kinds": {},
    }
    for kind, values in sorted(by_kind.items()):
        tail = tail_percentile(len(values))
        out["kinds"][kind] = {
            "n": len(values),
            "p50_ms": percentile(values, 50.0),
            f"p{tail:g}_ms": percentile(values, tail) if tail else None,
        }
    # a late generator makes the latencies the host's, not the server's;
    # the server's answers are still checked below
    if out["gen_late_p99_ms"] > LATE_LIMIT_MS:
        out["invalid"] = [
            f"generator ran late in {out['phase_a_attempts']} attempts: "
            f"p99 {out['gen_late_p99_ms']:.2f} ms > {LATE_LIMIT_MS} ms"
        ]
    checks = []
    digest = body_digest(phase_a)
    out["phase_a_sha256"] = digest
    golden = load_golden().get("serve-mixed", {})
    if seed == golden.get("seed", 0):
        if golden.get("phase_a_sha256") != digest:
            checks.append(
                f"phase-A bodies sha256 {digest} != golden {golden.get('phase_a_sha256')}"
            )
    checks.extend(reference_check(phase_a))
    out["checks"] = checks
    memo_hits = scrape(load["metrics"], "repro_serve_cache_peak_memo_hits")
    memo_misses = scrape(load["metrics"], "repro_serve_cache_peak_memo_misses")
    batched = scrape(load["metrics"], "repro_serve_batch_requests")
    out["serve.memo.hit_ratio"] = (
        memo_hits / (memo_hits + memo_misses) if memo_hits + memo_misses else 0.0
    )
    out["serve.batch.coalesced_ratio"] = (
        scrape(load["metrics"], "repro_serve_batch_coalesced") / batched if batched else 0.0
    )
    if not trace:
        out["wall_s"] = statistics.median(blocks)
        out["capacity_rps"] = BLOCK / out["wall_s"]
    else:
        out["layers"] = _serve_layers(report, out, load)
    return out


def _serve_layers(dump: Dict[str, Any], out: Dict[str, Any], load) -> Dict[str, float]:
    """Per-layer metrics of the traced server (CPU shares, per request)."""
    timer = SimpleNamespace(
        self_time=defaultdict(float, dump["self_time"]),
        top_level=defaultdict(float, dump["top_level"]),
        calls=Counter(dump["calls"]),
        counts=Counter(dump["counts"]),
    )
    cpu = dump["cpu_s"]
    blocks = out["blocks"]
    traced_blocks = blocks[1::2]
    untraced_blocks = blocks[0::2]
    # requests served while traced: warm-up, phase A (each attempt), odd
    # phase-B blocks, the final scrape
    requests = (
        N_TENANTS * len(MIX)
        + len(load["phase_a"]) * load["phase_a_attempts"]
        + BLOCK * len(traced_blocks)
        + 1
    )
    layers = layer_metrics(timer, cpu, requests)
    steps = timer.calls["thermal.step"]
    engine = dump["inclusive"].get("sim.engine", 0.0)
    layers.update(
        {
            "setup.import_s": dump["import_s"],
            "setup.context_s": dump["inclusive"].get("setup.context", 0.0),
            "core.memo.hit_ratio": out["serve.memo.hit_ratio"],
            "sim.intervals": layers["thermal.step.calls"],
            "sim.host_us_per_interval": engine / steps * 1e6 if steps else 0.0,
            "serve.parse.share": timer.self_time["serve.parse"] / cpu,
            "serve.payload.share": timer.self_time["serve.payload"] / cpu,
            "serve.cache.share": timer.self_time["serve.cache"] / cpu,
            "serve.peak.compute_share": timer.top_level["core.peak_batch"] / cpu,
            "serve.simulate.compute_share": timer.top_level["serve.simulate.compute"] / cpu,
            "serve.other_share": 1.0 - layers["trace.coverage"],
            "serve.memo.hit_ratio": out["serve.memo.hit_ratio"],
            "serve.batch.coalesced_ratio": out["serve.batch.coalesced_ratio"],
            "trace.overhead_pct": (
                (statistics.median(traced_blocks) / statistics.median(untraced_blocks) - 1.0)
                * 100.0
                if traced_blocks and untraced_blocks
                else 0.0
            ),
        }
    )
    waits = dump["waits"]
    counts = dump["counts"]
    out["waits_ms"] = {
        layer: waits[layer] / counts[layer + ".calls"] * 1e3
        for layer in waits
        if counts.get(layer + ".calls")
    }
    return layers
