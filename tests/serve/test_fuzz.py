"""Seeded fuzz of the HTTP input boundary: malformed input is a 4xx, never a 500.

Bodies: each case mutates a valid request body — a JSON value swapped for
one of another type, a key deleted or added, the serialized bytes cut or
spliced with invalid UTF-8 — and sends it through
:meth:`~repro.serve.http.ThermalServer._dispatch`, the routing entry
point every TCP request takes.

Request lines and headers: damaged heads (methods, targets, versions,
``Content-Length`` values, header lines, line endings) go to a running
server over a real socket.  Each must get an HTTP response or a clean
close, and the event loop must never see an unhandled exception.
"""

import asyncio
import copy
import gc
import json
import random

import pytest

from repro.serve import ServeConfig, ThermalServer

SMALL = {"mesh_width": 2, "mesh_height": 2}
POWER = [1.0, 2.0, 3.0, 4.0]

#: Valid request bodies the mutations start from.
BASES = {
    "/v1/peak": [
        {"tenant": "t", "power": POWER, "tau_s": 0.001},
        {"tenant": "t", "candidates": [{"power_seq": [POWER, POWER[::-1]], "tau_s": 0.002}]},
    ],
    "/v1/tau": [
        {"tenant": "t", "power_seq": [POWER, POWER[::-1]], "ladder_s": [0.001, 0.004]},
    ],
    "/v1/simulate": [
        {
            "tenant": "t",
            "scheduler": "hotpotato",
            "max_time_s": 0.004,
            "workload": {"kind": "homogeneous", "benchmark": "blackscholes", "seed": 1, "work_scale": 0.1},
        },
        {
            "tenant": "t",
            "max_time_s": 0.004,
            "workload": {"kind": "mixed", "n_tasks": 2, "seed": 2, "work_scale": 0.1, "arrival_rate_per_s": 100.0},
        },
    ],
    "/v1/tenants": [
        {"name": "u", "config": dict(SMALL, ambient_c=40.0), "slo": {"latency_s": 0.1, "error_budget": 0.05}},
    ],
}

#: Replacement values: every JSON type, edge numbers, nested shapes.
VALUES = [
    None, True, False, 0, -1, 1.5, 1e308, -1e-300, "", "x", "hotpotato",
    [], {}, [{}], [[]], [None], ["a"], {"a": 1}, [[1.0]], [1e308, -1.0],
    [[1, 2], [3]], [True, False, True, False],
]


def _paths(node, prefix=()):
    """Every (container path, key) position in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _mutate(rng, payload):
    """One structural mutation of a JSON payload (a deep copy)."""
    payload = copy.deepcopy(payload)
    positions = list(_paths(payload))
    if not positions:
        return payload
    position = rng.choice(positions)
    container = payload
    for key in position[0]:
        container = container[key]
    key = position[1]
    action = rng.randrange(4)
    if action == 0 and isinstance(container, dict):
        del container[key]
    elif action == 1 and isinstance(container, dict):
        container["zz_" + str(rng.randrange(9))] = rng.choice(VALUES)
    elif action == 2:
        container[key] = [container[key]]
    else:
        container[key] = copy.deepcopy(rng.choice(VALUES))
    return payload


def _body(rng, payload):
    """Serialize, sometimes damaging the bytes themselves."""
    body = json.dumps(payload).encode("utf-8")
    damage = rng.randrange(6)
    if damage == 0:
        return body[: rng.randrange(len(body))]
    if damage == 1:
        cut = rng.randrange(len(body))
        return body[:cut] + rng.choice([b"\xff", b"\xc3", b"\x00", b"}", b"NaN"]) + body[cut:]
    return body


def _cases(seed, per_endpoint):
    rng = random.Random(seed)
    cases = []
    for path, bases in BASES.items():
        for index in range(per_endpoint):
            payload = _mutate(rng, _mutate(rng, rng.choice(bases)))
            if path == "/v1/tenants" and isinstance(payload.get("name"), str):
                payload["name"] += str(index)  # creation must not just collide
            headers = {}
            if path == "/v1/peak" and rng.randrange(4) == 0:
                headers["content-type"] = "application/jsonl"
                header, candidate = {"tenant": payload.get("tenant")}, dict(payload)
                candidate.pop("tenant", None)
                text = json.dumps(header) + "\n" + json.dumps(candidate) + "\n"
                body = text.encode("utf-8")
                if rng.randrange(2):
                    body = body[:-3] + b"\xff\xfe" + body[-3:]
            else:
                body = _body(rng, payload)
            cases.append((path, headers, body))
    return cases


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_bodies_never_500(seed):
    async def main():
        server = ThermalServer(ServeConfig(port=0))
        status, body, _ = await server._dispatch(
            "POST", "/v1/tenants", {}, json.dumps({"name": "t", "config": SMALL}).encode()
        )
        assert status == 200, body
        failures = []
        for path, headers, body in _cases(seed, per_endpoint=40):
            status, payload, _ = await server._dispatch("POST", path, headers, body)
            if status >= 500:
                failures.append((path, body, status, payload))
        return failures

    failures = asyncio.run(main())
    assert failures == []


@pytest.mark.parametrize(
    "path, headers, body",
    [
        ("/v1/peak", {}, {"tenant": "t", "power": {"a": 1}}),
        ("/v1/peak", {}, {"tenant": "t", "candidates": [{"power": [{}]}]}),
        ("/v1/peak", {"content-type": "application/jsonl"}, b'{"tenant": "t"}\n\xff\n'),
    ],
)
def test_known_500s_are_400(path, headers, body):
    async def main():
        server = ThermalServer(ServeConfig(port=0))
        await server._dispatch(
            "POST", "/v1/tenants", {}, json.dumps({"name": "t", "config": SMALL}).encode()
        )
        raw = body if isinstance(body, bytes) else json.dumps(body).encode()
        return await server._dispatch("POST", path, headers, raw)

    status, payload, _ = asyncio.run(main())
    assert status == 400, payload


# -- request lines and headers, over a real socket ---------------------------

METHODS = ["GET", "POST", "DELETE", "PUT", "", "G ET", "\x00", "post", "GET\t"]
TARGETS = [
    "/", "/metrics", "/v1/peak", "/v1/tenants", "/v1/tenants/t", "//",
    "/v1/peak?x=1&&=", "%zz", "*", "/" + "a" * 3000,
]
VERSIONS = ["HTTP/1.1", "HTTP/1.0", "", "HTTP/9.9", "garbage", "HTTP/1.1 extra"]
LENGTHS = [
    "0", "-1", "-0", "abc", "1e3", "+5", "1_0", "0x10", "99999999999999999999",
    "٣", " ", "12 34", "{len}", "{len}", "{len}", "{more}",
]
HEADERS = [
    ("Connection", "close"), ("Connection", "keep-alive"), ("Connection", "\xff"),
    ("Content-Type", "application/jsonl"), ("Content-Type", ""), ("", "empty-name"),
    ("X-Long", "v" * 8000), ("no-colon-at-all", None), (":", ":"),
]
BODY = json.dumps({"tenant": "t", "power": POWER}).encode()


def _raw_request(rng):
    """One request head (and body) with damaged framing."""
    line = " ".join(
        part
        for part in (rng.choice(METHODS), rng.choice(TARGETS), rng.choice(VERSIONS))
        if rng.randrange(8) or not part
    )
    lines = [line]
    body = rng.choice([b"", BODY, BODY[: rng.randrange(len(BODY))], b"\xff\xfe{"])
    for _ in range(rng.randrange(4)):
        name, value = rng.choice(HEADERS)
        lines.append(name if value is None else f"{name}: {value}")
    if rng.randrange(5):
        length = rng.choice(LENGTHS).format(len=len(body), more=len(body) + 7)
        lines.append(f"Content-Length: {length}")
    eol = rng.choice(["\r\n", "\n"])
    head = (eol.join(lines) + eol + eol).encode("latin-1", errors="replace")
    if rng.randrange(10) == 0:
        cut = rng.randrange(len(head))
        head = head[:cut] + rng.choice([b"\x00", b"\xff", b"\r", b"\n"]) + head[cut:]
    return head + body


async def _exchange(host, port, raw, timeout_s=10.0):
    """Send ``raw``, half-close, read until the server closes."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await writer.drain()
        writer.write_eof()
        return await asyncio.wait_for(reader.read(), timeout_s)
    finally:
        writer.close()


def _statuses(response):
    """Status codes of the responses in one connection's byte stream."""
    return [
        int(chunk[len(b"HTTP/1.1 "):][:3])
        for chunk in response.split(b"\r\n\r\n")
        if chunk.startswith(b"HTTP/1.1 ")
    ]


def _serve(cases):
    """Every case's response bytes, plus anything the event loop caught."""

    async def main():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _, context: errors.append(context))
        server = ThermalServer(ServeConfig(port=0))
        await server.start()
        try:
            host, port = server.config.host, server.port
            await _exchange(
                host, port,
                b"POST /v1/tenants HTTP/1.1\r\nConnection: close\r\nContent-Length: "
                + str(len(json.dumps({"name": "t", "config": SMALL}))).encode()
                + b"\r\n\r\n" + json.dumps({"name": "t", "config": SMALL}).encode(),
            )
            responses = [await _exchange(host, port, raw) for raw in cases]
        finally:
            await server.close()
        gc.collect()  # surfaces "exception was never retrieved" tasks
        await asyncio.sleep(0)
        return responses, errors

    return asyncio.run(main())


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzzed_request_heads_get_a_response_or_a_clean_close(seed):
    rng = random.Random(seed)
    cases = [_raw_request(rng) for _ in range(60)]
    responses, errors = _serve(cases)
    assert errors == []
    for raw, response in zip(cases, responses):
        assert response == b"" or response.startswith(b"HTTP/1.1 "), (raw, response)
        assert all(status < 500 for status in _statuses(response)), (raw, response)


@pytest.mark.parametrize("length", ["-1", "abc", "1e3", "+5", "1_0", "٣"])
def test_bad_content_length_is_400_and_closes(length):
    raw = (
        f"POST /v1/peak HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
        + BODY
    )
    (response,), errors = _serve([raw])
    assert errors == []
    assert _statuses(response) == [400]
    assert b"Connection: close" in response


def test_overlong_header_line_is_400():
    raw = b"GET / HTTP/1.1\r\nX-Huge: " + b"v" * 70000 + b"\r\n\r\n"
    (response,), errors = _serve([raw])
    assert errors == []
    assert _statuses(response) == [400]
