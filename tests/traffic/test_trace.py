"""JSONL arrival traces: exact round-trips, torn-tail rejection, replay.

The golden test pins the end-to-end contract: a hand-built trace replayed
through fig4b's ``traffic="trace"`` path yields exactly the response
times of simulating the same specs directly — ids, arrivals and
completions all bit-for-bit.
"""

import json

import pytest

from repro.config import small_test
from repro.experiments import fig4b
from repro.sim.context import SimContext
from repro.sim.engine import IntervalSimulator
from repro.traffic import (
    PoissonProcess,
    assign_arrivals,
    load_arrival_trace,
    write_arrival_trace,
)
from repro.workload.generator import TaskSpec, materialize
from repro.workload.benchmarks import parsec_profile
from repro.workload.qos import PRIORITY_CRITICAL, QosSpec


def _hand_built_specs():
    """Four small tasks with known arrivals, thread counts and QoS."""
    return [
        TaskSpec(
            parsec_profile("blackscholes"),
            n_threads=1,
            arrival_time_s=0.0,
            seed=1,
            work_scale=0.25,
            qos=QosSpec(deadline_s=5.0, priority=PRIORITY_CRITICAL),
        ),
        TaskSpec(
            parsec_profile("swaptions"),
            n_threads=2,
            arrival_time_s=0.010,
            seed=2,
            work_scale=0.25,
        ),
        TaskSpec(
            parsec_profile("canneal"),
            n_threads=1,
            arrival_time_s=0.025,
            seed=3,
            work_scale=0.25,
            qos=QosSpec(latency_slo_s=0.5, deadline_s=5.0),
        ),
        TaskSpec(
            parsec_profile("bodytrack"),
            n_threads=2,
            arrival_time_s=0.0251,
            seed=4,
            work_scale=0.25,
        ),
    ]


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "arrivals.jsonl"
    write_arrival_trace(path, _hand_built_specs())
    return path


class TestRoundTrip:
    def test_exact_round_trip(self, trace_path):
        specs = _hand_built_specs()
        loaded = load_arrival_trace(trace_path)
        assert len(loaded) == len(specs)
        for original, back in zip(specs, loaded):
            assert back.profile.name == original.profile.name
            assert back.n_threads == original.n_threads
            assert back.arrival_time_s == original.arrival_time_s  # bitwise
            assert back.seed == original.seed
            assert back.work_scale == original.work_scale
            assert back.qos == original.qos

    def test_writer_sorts_by_arrival(self, tmp_path):
        specs = list(reversed(_hand_built_specs()))
        path = tmp_path / "reversed.jsonl"
        write_arrival_trace(path, specs)
        times = [s.arrival_time_s for s in load_arrival_trace(path)]
        assert times == sorted(times)

    def test_random_specs_round_trip_bitwise(self, tmp_path):
        from repro.workload.generator import random_mixed_workload

        specs = assign_arrivals(
            random_mixed_workload(15, seed=9), PoissonProcess(50.0), seed=9
        )
        path = tmp_path / "random.jsonl"
        write_arrival_trace(path, specs)
        loaded = load_arrival_trace(path)
        assert [s.arrival_time_s for s in loaded] == [
            s.arrival_time_s for s in specs
        ]


class TestLoaderRejections:
    def test_torn_tail_missing_newline(self, trace_path):
        text = trace_path.read_text()
        trace_path.write_text(text.rstrip("\n"))
        with pytest.raises(ValueError, match="torn tail.*newline"):
            load_arrival_trace(trace_path)

    def test_torn_tail_record_count_short(self, trace_path):
        lines = trace_path.read_text().splitlines()
        trace_path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="torn tail.*declares 4 records"):
            load_arrival_trace(trace_path)

    def test_corrupt_record_json(self, trace_path):
        lines = trace_path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # chop a record mid-JSON
        trace_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r":3: undecodable record"):
            load_arrival_trace(trace_path)

    def test_non_monotonic_timestamps(self, trace_path):
        lines = trace_path.read_text().splitlines()
        second = json.loads(lines[2])
        second["time_s"] = 9.0  # later than every following record
        lines[2] = json.dumps(second, sort_keys=True)
        trace_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-monotonic timestamp"):
            load_arrival_trace(trace_path)

    def test_negative_timestamp(self, trace_path):
        lines = trace_path.read_text().splitlines()
        first = json.loads(lines[1])
        first["time_s"] = -0.5
        lines[1] = json.dumps(first, sort_keys=True)
        trace_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="negative timestamp"):
            load_arrival_trace(trace_path)

    def test_missing_fields(self, trace_path):
        lines = trace_path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["n_threads"]
        lines[1] = json.dumps(record, sort_keys=True)
        trace_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="missing fields.*n_threads"):
            load_arrival_trace(trace_path)

    def test_unknown_benchmark(self, trace_path):
        lines = trace_path.read_text().splitlines()
        record = json.loads(lines[1])
        record["benchmark"] = "doom"
        lines[1] = json.dumps(record, sort_keys=True)
        trace_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unknown benchmark 'doom'"):
            load_arrival_trace(trace_path)

    def test_invalid_qos(self, trace_path):
        lines = trace_path.read_text().splitlines()
        record = json.loads(lines[1])
        record["qos"] = {"priority": 99}
        lines[1] = json.dumps(record, sort_keys=True)
        trace_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="invalid QoS annotation"):
            load_arrival_trace(trace_path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_arrival_trace(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(
            '{"kind": "header", "n": 1, "version": 1}\n'
            '{"key": "0", "kind": "cell", "result": 1}\n'
        )
        with pytest.raises(ValueError, match=":2: unknown record kind 'cell'"):
            load_arrival_trace(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text(json.dumps({"kind": "repro-arrival-trace", "n": 0}) + "\n")
        with pytest.raises(ValueError, match=":1: expected a header line"):
            load_arrival_trace(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "n": 0, "version": 2}) + "\n"
        )
        with pytest.raises(ValueError, match="unsupported version 2"):
            load_arrival_trace(path)

    def test_errors_name_file_and_line(self, trace_path):
        lines = trace_path.read_text().splitlines()
        lines[3] = "not json"
        trace_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{trace_path}:4"):
            load_arrival_trace(trace_path)


class TestGoldenReplay:
    """The golden trace-replay test: fig4b's trace cell reproduces a
    direct simulation of the hand-built specs, response time for response
    time."""

    def _direct_result(self, cfg, model):
        sim = IntervalSimulator(
            cfg,
            fig4b._SCHEDULERS["hotpotato"](),
            materialize(_hand_built_specs()),
            ctx=SimContext(cfg, model),
        )
        return sim.run(max_time_s=3.0)

    def test_replay_pins_per_task_response_times(self, trace_path, cfg4):
        cfg = cfg4
        ctx = SimContext(cfg)
        replayed = fig4b._simulate_cell(
            arrival_rate_per_s=123.0,  # ignored by trace replay
            scheduler="hotpotato",
            config=cfg,
            model=ctx.thermal_model,
            n_tasks=999,  # ignored by trace replay
            seed=42,  # ignored by trace replay
            work_scale=3.0,  # ignored by trace replay
            max_time_s=3.0,
            traffic="trace",
            trace_path=trace_path,
        )
        direct = self._direct_result(cfg, ctx.thermal_model)
        assert len(replayed.tasks) == len(_hand_built_specs())
        assert [
            (t.task_id, t.benchmark, t.arrival_s, t.completion_s)
            for t in replayed.tasks
        ] == [
            (t.task_id, t.benchmark, t.arrival_s, t.completion_s)
            for t in direct.tasks
        ]
        # ids follow trace (arrival) order
        assert [t.benchmark for t in replayed.tasks] == [
            "blackscholes",
            "swaptions",
            "canneal",
            "bodytrack",
        ]

    def test_replay_is_deterministic_across_runs(self, trace_path, cfg4):
        ctx = SimContext(cfg4)
        kwargs = dict(
            arrival_rate_per_s=1.0,
            scheduler="qos",
            config=cfg4,
            model=ctx.thermal_model,
            n_tasks=1,
            seed=0,
            work_scale=1.0,
            max_time_s=3.0,
            traffic="trace",
            trace_path=trace_path,
        )
        first = fig4b._simulate_cell(**kwargs)
        again = fig4b._simulate_cell(**kwargs)
        assert [t.response_time_s for t in first.tasks] == [
            t.response_time_s for t in again.tasks
        ]

    def test_trace_traffic_requires_path(self, cfg4):
        ctx = SimContext(cfg4)
        with pytest.raises(ValueError, match="requires trace_path"):
            fig4b._simulate_cell(
                arrival_rate_per_s=1.0,
                scheduler="hotpotato",
                config=cfg4,
                model=ctx.thermal_model,
                n_tasks=1,
                seed=0,
                work_scale=1.0,
                max_time_s=1.0,
                traffic="trace",
            )
