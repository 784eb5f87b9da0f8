"""Trace recorder: structured records and lossless JSONL round-trips."""

import math

import pytest

from repro import config
from repro.obs import EpochRecord, EventRecord, IntervalRecord, TraceRecorder
from repro.sched import FixedRotationScheduler, HotPotatoScheduler
from repro.sim import IntervalSimulator, TaskArrived, ThreadMigrated
from repro.workload import PARSEC, Task


def _sample_recorder() -> TraceRecorder:
    recorder = TraceRecorder()
    recorder.record_event(TaskArrived(0.0, 7, "blackscholes", 2))
    recorder.record_interval(
        time_s=0.0,
        dt_s=0.5e-3,
        placements={"7.0": 5, "7.1": 6},
        power_w=[0.3, 8.0, 0.3, 0.3],
        temps_c=[46.0, 61.5, 45.2, 45.1],
        frequencies_hz=[4.0e9] * 4,
        dtm_throttled=[1],
    )
    recorder.record_epoch(0.5e-3, 1, 0.5e-3)
    recorder.record_event(ThreadMigrated(0.5e-3, "7.0", 5, 9, 25e-6))
    return recorder


class TestRecording:
    def test_records_are_typed_and_ordered(self):
        recorder = _sample_recorder()
        assert len(recorder) == 4
        assert len(recorder.intervals()) == 1
        assert len(recorder.epochs()) == 1
        assert len(recorder.events()) == 2
        assert len(recorder.events("ThreadMigrated")) == 1
        times = [r.time_s for r in recorder]
        assert times == sorted(times)

    def test_interval_record_coerces_and_sorts(self):
        recorder = TraceRecorder()
        record = recorder.record_interval(
            time_s=0,
            dt_s=1,
            placements={"b": 1, "a": 0},
            power_w=[1, 2],
            temps_c=[45, 46],
            frequencies_hz=[1e9, 2e9],
        )
        assert list(record.placements) == ["a", "b"]
        assert record.power_w == (1.0, 2.0)
        assert record.dtm_throttled == ()
        assert isinstance(record.dt_s, float)

    def test_event_record_strips_timestamp_into_field(self):
        recorder = TraceRecorder()
        record = recorder.record_event(TaskArrived(0.25, 3, "x264", 4))
        assert record.time_s == 0.25
        assert record.event == "TaskArrived"
        assert record.data == {
            "task_id": 3,
            "benchmark": "x264",
            "n_threads": 4,
        }

    def test_record_event_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            TraceRecorder().record_event(object())


class TestJsonlRoundTrip:
    def test_manual_records_round_trip_exactly(self):
        recorder = _sample_recorder()
        reloaded = TraceRecorder.from_jsonl(recorder.to_jsonl())
        assert reloaded == recorder
        assert reloaded.records == recorder.records

    def test_round_trip_preserves_awkward_floats(self):
        recorder = TraceRecorder()
        recorder.record_interval(
            time_s=1.0 / 3.0,
            dt_s=0.1 + 0.2,  # famously not 0.3
            placements={"0.0": 0},
            power_w=[math.pi],
            temps_c=[45.000000001],
            frequencies_hz=[4.0e9],
        )
        reloaded = TraceRecorder.from_jsonl(recorder.to_jsonl())
        assert reloaded == recorder

    def test_file_round_trip(self, tmp_path):
        recorder = _sample_recorder()
        path = tmp_path / "trace.jsonl"
        recorder.write_jsonl(path)
        assert TraceRecorder.read_jsonl(path) == recorder

    def test_empty_recorder_round_trips(self):
        recorder = TraceRecorder()
        assert recorder.to_jsonl() == '{"kind": "header", "n": 0, "version": 1}\n'
        assert TraceRecorder.from_jsonl(recorder.to_jsonl()) == recorder

    def test_bad_json_line_reports_line_number(self):
        header = TraceRecorder().to_jsonl().replace('"n": 0, ', "")
        with pytest.raises(ValueError, match=":2: undecodable"):
            TraceRecorder.from_jsonl(header + "{not json\n")

    def test_unknown_kind_rejected(self):
        header = TraceRecorder().to_jsonl().replace('"n": 0, ', "")
        with pytest.raises(ValueError, match="unknown record kind 'mystery'"):
            TraceRecorder.from_jsonl(header + '{"kind": "mystery", "time_s": 0}\n')

    def test_record_types_from_jsonl(self):
        reloaded = TraceRecorder.from_jsonl(_sample_recorder().to_jsonl())
        kinds = [type(r) for r in reloaded]
        assert kinds == [EventRecord, IntervalRecord, EpochRecord, EventRecord]


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def traced_run(self):
        cfg = config.motivational().with_observability(trace=True)
        task = Task(0, PARSEC["blackscholes"], n_threads=2, seed=1)
        sim = IntervalSimulator(cfg, HotPotatoScheduler(), [task])
        result = sim.run(max_time_s=0.05)
        return sim, result

    def test_engine_trace_round_trips(self, traced_run, tmp_path):
        sim, _ = traced_run
        recorder = sim.observer.trace
        assert len(recorder.intervals()) > 0
        path = tmp_path / "run.jsonl"
        recorder.write_jsonl(path)
        assert TraceRecorder.read_jsonl(path) == recorder

    def test_interval_records_cover_the_run(self, traced_run):
        sim, result = traced_run
        intervals = sim.observer.trace.intervals()
        # contiguous, non-overlapping coverage of simulated time
        for prev, cur in zip(intervals, intervals[1:]):
            assert cur.time_s == pytest.approx(prev.time_s + prev.dt_s)
        assert intervals[-1].time_s + intervals[-1].dt_s == pytest.approx(
            result.sim_time_s
        )

    def test_interval_starts_are_exact(self):
        """Each record starts exactly where the previous one ended (no
        recomputation from the end of the interval), from 0.0 on."""
        cfg = config.motivational().with_observability(trace=True)
        task = Task(0, PARSEC["blackscholes"], n_threads=2, seed=1)
        sim = IntervalSimulator(
            cfg,
            FixedRotationScheduler(cores=(5, 6, 9, 10), tau_s=0.5e-3),
            [task],
            warm_start_uniform_power_w=2.8,
        )
        result = sim.run(max_time_s=1.0)
        intervals = sim.observer.trace.intervals()
        assert len(intervals) >= 100
        assert intervals[0].time_s == 0.0
        for prev, cur in zip(intervals, intervals[1:]):
            assert cur.time_s == prev.time_s + prev.dt_s
        assert intervals[-1].time_s + intervals[-1].dt_s == result.sim_time_s

    def test_interval_records_carry_engine_state(self, traced_run):
        sim, _ = traced_run
        cfg = sim.config
        busy = [r for r in sim.observer.trace.intervals() if r.placements]
        assert busy, "no interval carried placements"
        for record in busy:
            assert len(record.power_w) == cfg.n_cores
            assert len(record.temps_c) == cfg.n_cores
            assert len(record.frequencies_hz) == cfg.n_cores
            assert all(p >= cfg.thermal.idle_power_w - 1e-12 for p in record.power_w)
            assert all(0 <= c < cfg.n_cores for c in record.placements.values())

    def test_events_mirrored_into_trace(self, traced_run):
        sim, result = traced_run
        recorder = sim.observer.trace
        assert len(recorder.events("TaskArrived")) == 1
        # every engine migration appears as a ThreadMigrated event record
        assert len(recorder.events("ThreadMigrated")) == result.migration_count

    def test_rotation_epochs_recorded(self):
        cfg = config.motivational().with_observability(trace=True)
        task = Task(0, PARSEC["blackscholes"], n_threads=2, seed=1)
        sim = IntervalSimulator(cfg, FixedRotationScheduler(tau_s=1e-3), [task])
        sim.run(max_time_s=0.02)
        epochs = sim.observer.trace.epochs()
        assert len(epochs) >= 2
        assert [e.epoch for e in epochs] == list(range(len(epochs)))
        for record in epochs:
            assert record.tau_s == pytest.approx(1e-3)


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _sample_recorder().write_jsonl(path)
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("old content that must fully disappear\n" * 100)
        recorder = _sample_recorder()
        recorder.write_jsonl(path)
        assert TraceRecorder.read_jsonl(path) == recorder

    def test_failed_write_preserves_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        original = _sample_recorder()
        original.write_jsonl(path)
        before = path.read_text()
        broken = _sample_recorder()
        monkeypatch.setattr(
            type(broken), "to_jsonl", lambda self: (_ for _ in ()).throw(OSError("disk"))
        )
        with pytest.raises(OSError, match="disk"):
            broken.write_jsonl(path)
        # the target is untouched and the temp file was cleaned up
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]
