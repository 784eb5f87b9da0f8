"""The serve load generator against an in-process server, on a 1-s tape."""

import asyncio
import itertools
import json
from collections import Counter

from bench import serve


def test_every_block_holds_the_mix_exactly_and_the_tape_follows_the_seed():
    tape = list(itertools.islice(serve.request_tape(3, "phase-a"), 3 * serve.BLOCK))
    for start in range(0, len(tape), serve.BLOCK):
        kinds = Counter(r.kind for r in tape[start:start + serve.BLOCK])
        assert kinds == dict(serve.MIX)
    again = list(itertools.islice(serve.request_tape(3, "phase-a"), 3 * serve.BLOCK))
    other = list(itertools.islice(serve.request_tape(4, "phase-a"), 3 * serve.BLOCK))
    assert tape == again and tape != other
    assert serve.due_times(3, 5) == serve.due_times(3, 5) != serve.due_times(4, 5)


def test_block_edges_split_completions_into_blocks():
    completions = [(float(i + 1), 200) for i in range(2 * serve.BLOCK + 5)]
    edges = serve.block_edges(0.0, completions)
    assert edges == [(0.0, 100.0), (100.0, 200.0)]


def test_digest_ignores_last_bit_differences_only():
    def record(body):
        return (serve.make_request("peak", 0, [1.0] * 16, 0), 0.0, 0.0, 200, body, 0.0)

    a = json.dumps({"t_peak_c": 53.5985746124973}).encode()
    b = json.dumps({"t_peak_c": 53.59857461249731}).encode()
    c = json.dumps({"t_peak_c": 53.6}).encode()
    assert serve.body_digest([record(a)]) == serve.body_digest([record(b)])
    assert serve.body_digest([record(a)]) != serve.body_digest([record(c)])
    assert serve._close(json.loads(a), json.loads(b))
    assert not serve._close(json.loads(a), json.loads(c))


def test_one_second_tape_against_an_in_process_server():
    from repro.serve.http import ThermalServer
    from repro.serve.service import ServeConfig

    server = ThermalServer(ServeConfig(port=0))

    async def run():
        await server.start()
        try:
            await serve.create_tenants(server.port)
            load = await serve.drive(
                server.port, seed=0, phase_b_s=0.3, phase_a_requests=40
            )
            await asyncio.sleep(0.1)  # let the handlers see the closes
        finally:
            await server.close()
        return load

    load = asyncio.run(run())
    phase_a = load["phase_a"]
    assert len(phase_a) == 40
    # the 40 requests were due over about one second at 40 req/s
    dues = [due for _, due, _, _, _, _ in phase_a]
    assert 0.3 < dues[-1] - dues[0] < 3.0
    for request, due, write, status, body, done in phase_a:
        assert status == 200, body
        assert write >= due and done > write
    assert {r.kind for r, *_ in phase_a} >= {"peak", "tau", "simulate"}
    assert load["phase_b"] and all(status == 200 for _, status in load["phase_b"])
    assert "repro_serve_cache_peak_memo_hits" in load["metrics"]
    # answers served under load equal a one-at-a-time replay
    assert serve.reference_check(phase_a) == []
