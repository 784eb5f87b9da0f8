"""Streaming JSONL trace sink: on-disk behaviour and recorder equivalence."""

import pytest

from repro.obs import JsonlTraceSink, TraceRecorder

from .conftest import build_mini_trace


class TestStreaming:
    def test_records_stream_to_disk(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlTraceSink(path) as sink:
            build_mini_trace(sink)
            # readable mid-run after a flush, before close
            sink.flush()
            partial = TraceRecorder.read_jsonl(path)
            assert len(partial.intervals()) == 4
        assert sink.closed

    def test_disk_trace_equals_in_memory_recorder(self, tmp_path):
        with JsonlTraceSink(tmp_path / "run.jsonl") as sink:
            build_mini_trace(sink)
            reloaded = sink.reload()
        assert reloaded == build_mini_trace()

    def test_memory_stays_empty_by_default(self, tmp_path):
        with JsonlTraceSink(tmp_path / "run.jsonl") as sink:
            build_mini_trace(sink)
            assert sink.records == []
            assert len(sink) == 13  # records written, not buffered

    def test_recording_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "run.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.record_epoch(0.0, epoch=0, tau_s=1e-3)

    def test_close_and_flush_idempotent(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "run.jsonl")
        sink.close()
        sink.close()
        sink.flush()  # safe no-op after close


class TestEngineIntegration:
    def test_engine_streams_through_config(self, tmp_path):
        from repro import config
        from repro.sched.hotpotato_runtime import HotPotatoScheduler
        from repro.sim.engine import IntervalSimulator
        from repro.workload.benchmarks import PARSEC
        from repro.workload.task import Task

        path = tmp_path / "run.jsonl"
        cfg = config.small_test().with_observability(trace_path=str(path))
        sim = IntervalSimulator(
            cfg, HotPotatoScheduler(), [Task(0, PARSEC["blackscholes"], 1, seed=1)]
        )
        sim.run(max_time_s=0.01)
        assert isinstance(sim.observer.trace, JsonlTraceSink)
        # the engine's end-of-run flush makes the file complete on disk
        trace = TraceRecorder.read_jsonl(path)
        assert len(trace.intervals()) > 0
        total = sum(r.dt_s for r in trace.intervals())
        assert total == pytest.approx(0.01, rel=1e-6)
        sim.observer.close()
        assert sim.observer.trace.closed
