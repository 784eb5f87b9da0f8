"""The one record-file format: writer, strict reader, and its four users.

Covers :mod:`repro.records` directly, round-trips every record kind
through its real writer and reader (obs trace, spans, arrival trace,
sweep checkpoint), pins the loader bugs the shared reader closed, and
fuzzes every file type: a truncated or damaged file either reads back
exactly its complete records (streamed files) or raises
``ValueError("<path>:<line>: ...")`` — never another exception.
"""

import json
import random
import re

import pytest

from repro import records
from repro.obs import JsonlTraceSink, SpanTracer, TraceRecorder
from repro.obs.spans import read_spans_jsonl, span_to_json_line, spans_to_jsonl
from repro.parallel import SweepCheckpoint, canonical_key
from repro.traffic import load_arrival_trace, write_arrival_trace
from repro.workload.benchmarks import parsec_profile
from repro.workload.generator import TaskSpec

from .obs.conftest import build_mini_trace

HEADER = '{"kind": "header", "version": 1}\n'


def _located(path):
    """``pytest.raises`` match for an error naming ``path`` and a line."""
    return rf"^{re.escape(str(path))}:\d+: "


def _specs():
    return [
        TaskSpec(parsec_profile("canneal"), 2, 0.0, seed=3, work_scale=0.5),
        TaskSpec(parsec_profile("x264"), 1, 1.0 / 3.0, seed=4),
        TaskSpec(parsec_profile("swaptions"), 4, 0.1 + 0.2, seed=5),
    ]


def _spans():
    tracer = SpanTracer(enabled=True)
    for index in range(2):
        with tracer.span("http.peak", links=(7, 9), endpoint="peak") as span:
            span.annotate(status=200, index=index)
            with tracer.span("batch.wait"):
                pass
    return list(tracer)


def _spec_key(spec):
    return (
        spec.profile.name,
        spec.n_threads,
        spec.arrival_time_s,
        spec.seed,
        spec.work_scale,
    )


# -- the four file types: (path, data, reader, full records, streamed) -------


def _trace_whole(tmp_path):
    path = tmp_path / "trace.jsonl"
    build_mini_trace().write_jsonl(path)
    return path, lambda p: TraceRecorder.read_jsonl(p).records, build_mini_trace().records, False


def _trace_streamed(tmp_path):
    path = tmp_path / "sink.jsonl"
    with JsonlTraceSink(path) as sink:
        build_mini_trace(sink)
    return path, lambda p: TraceRecorder.read_jsonl(p).records, build_mini_trace().records, True


def _spans_whole(tmp_path):
    path = tmp_path / "spans.jsonl"
    spans = _spans()
    path.write_text(spans_to_jsonl(spans))
    return path, read_spans_jsonl, spans, False


def _spans_streamed(tmp_path):
    path = tmp_path / "spans_stream.jsonl"
    with SpanTracer(enabled=True, sink_path=path) as tracer:
        with tracer.span("a", links=(1,)):
            with tracer.span("b", k="v"):
                pass
        with tracer.span("c"):
            pass
    return path, read_spans_jsonl, list(tracer), True


def _arrivals(tmp_path):
    path = tmp_path / "arrivals.jsonl"
    write_arrival_trace(path, _specs())
    expected = [_spec_key(s) for s in sorted(_specs(), key=lambda s: s.arrival_time_s)]
    return path, lambda p: [_spec_key(s) for s in load_arrival_trace(p)], expected, False


_CELLS = [(("fig4a", "canneal", i), {"peak_c": 60.0 + i / 7, "tasks": [i, None]}) for i in range(3)]


def _checkpoint_streamed(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    checkpoint = SweepCheckpoint(path)
    for key, result in _CELLS:
        checkpoint.append(key, result)
    checkpoint.close()
    expected = [(canonical_key(k), r) for k, r in _CELLS]
    return path, lambda p: list(SweepCheckpoint(p).load().items()), expected, True


def _checkpoint_finalized(tmp_path):
    path = tmp_path / "final.jsonl"
    SweepCheckpoint(path).finalize(_CELLS)
    expected = [(canonical_key(k), r) for k, r in _CELLS]
    return path, lambda p: list(SweepCheckpoint(p).load().items()), expected, False


FILE_TYPES = {
    "trace-whole": _trace_whole,
    "trace-streamed": _trace_streamed,
    "spans-whole": _spans_whole,
    "spans-streamed": _spans_streamed,
    "arrivals": _arrivals,
    "checkpoint-streamed": _checkpoint_streamed,
    "checkpoint-finalized": _checkpoint_finalized,
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(FILE_TYPES))
    def test_read_of_write_is_identity(self, name, tmp_path):
        path, read, expected, _ = FILE_TYPES[name](tmp_path)
        assert read(path) == expected

    @pytest.mark.parametrize("name", sorted(FILE_TYPES))
    def test_files_start_with_the_header(self, name, tmp_path):
        path, _, expected, streamed = FILE_TYPES[name](tmp_path)
        header = json.loads(path.read_text().splitlines()[0])
        declared = {} if streamed else {"n": len(expected)}
        assert header == {"kind": "header", "version": 1, **declared}

    def test_every_trace_kind_round_trips(self):
        trace = build_mini_trace()
        kinds = {type(r).__name__ for r in trace.records}
        assert kinds == {"IntervalRecord", "EpochRecord", "EventRecord"}
        assert TraceRecorder.from_jsonl(trace.to_jsonl()) == trace


class TestFormat:
    def test_lines_are_kind_tagged_and_sorted(self):
        line = records.encode("epoch", {"tau_s": 1e-3, "epoch": 2, "time_s": 0.5})
        assert line == '{"epoch": 2, "kind": "epoch", "tau_s": 0.001, "time_s": 0.5}'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_encoder_refuses_non_finite(self, bad, tmp_path):
        with pytest.raises(ValueError, match="not finite"):
            records.encode("epoch", {"tau_s": bad})
        writer = records.RecordWriter(tmp_path / "s.jsonl")
        with pytest.raises(ValueError, match="not finite"):
            writer.write("x", {"v": [bad]})
        writer.close()

    def test_whole_file_declares_n(self):
        assert records.dumps([("a", {}), ("b", {"v": 1})]) == (
            '{"kind": "header", "n": 2, "version": 1}\n'
            '{"kind": "a"}\n{"kind": "b", "v": 1}\n'
        )

    def test_streamed_file_reads_back_mid_run(self, tmp_path):
        path = tmp_path / "s.jsonl"
        decoders = {"x": lambda f: f["v"]}
        writer = records.RecordWriter(path)
        writer.write("x", {"v": 1})
        writer.flush()
        assert records.load(path, decoders) == [1]
        writer.write("x", {"v": 2})
        writer.sync()
        assert records.load(path, decoders) == [1, 2]
        assert writer.count == 2
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.write("x", {"v": 3})

    def test_writer_carries_records_over_and_replaces_the_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("old content\n" * 50)
        writer = records.RecordWriter(path, [("x", {"v": 1})])
        writer.write("x", {"v": 2})
        writer.close()
        assert path.read_text() == HEADER + '{"kind": "x", "v": 1}\n{"kind": "x", "v": 2}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["s.jsonl"]

    def test_writer_flushes_every_256_records(self, tmp_path):
        path = tmp_path / "s.jsonl"
        writer = records.RecordWriter(path)
        for value in range(records.FLUSH_EVERY):
            writer.write("x", {"v": value})
        assert len(path.read_text().splitlines()) == 1 + records.FLUSH_EVERY
        writer.close()


class TestReaderRejections:
    DECODERS = {"x": lambda f: records.typed(f["v"], int)}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", r"<text>:1: no header line"),
            ('{"kind": "header", "ver', r"<text>:1: no header line"),
            ('{"kind": "x", "v": 1}\n', r"<text>:1: expected a header line"),
            ('{"kind": "header", "version": 2}\n', r"<text>:1: unsupported version 2"),
            ('{"kind": "header", "version": true}\n', r"<text>:1: unsupported version True"),
            ('{"kind": "header", "n": -1, "version": 1}\n', r"<text>:1: invalid record count"),
            (HEADER + "{bad\n", r"<text>:2: undecodable record"),
            (HEADER + "[1, 2]\n", r"<text>:2: expected an object, found list"),
            (HEADER + "\n", r"<text>:2: undecodable record"),
            (HEADER + '{"kind": "y"}\n', r"<text>:2: unknown record kind 'y' \(expected x\)"),
            (HEADER + '{"kind": ["x"]}\n', r"<text>:2: unknown record kind \['x'\]"),
            (HEADER + '{"kind": "header", "version": 1}\n', r"<text>:2: unknown record kind 'header'"),
            (HEADER + '{"kind": "x"}\n', r"<text>:2: missing fields in x record: 'v'"),
            (HEADER + '{"kind": "x", "v": "1"}\n', r"<text>:2: bad x record: expected int"),
            (HEADER + '{"kind": "x", "v": NaN}\n', r"<text>:2: undecodable record: non-finite number NaN"),
            (HEADER + '{"kind": "x", "v": -Infinity}\n', r"<text>:2: undecodable record: non-finite number -Infinity"),
            (HEADER + '{"kind": "x", "v": 1e999}\n', r"<text>:2: undecodable record: non-finite number 1e999"),
            (
                '{"kind": "header", "n": 2, "version": 1}\n{"kind": "x", "v": 1}\n',
                r"<text>:1: torn tail — header declares 2 records, found 1$",
            ),
            (
                '{"kind": "header", "n": 1, "version": 1}\n{"kind": "x", "v": 1}',
                r"<text>:1: torn tail — header declares 1 records, found 0 "
                r"\(the last line is missing its newline\)",
            ),
            (
                '{"kind": "header", "n": 0, "version": 1}\n{"kind": "x", "v": 1}\n',
                r"<text>:1: header declares 0 records, found 1",
            ),
        ],
    )
    def test_rejections_name_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            records.loads(text, self.DECODERS)

    def test_invalid_utf8_is_a_located_value_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(HEADER.encode() + b'{"kind": "x", "v": "\xff"}\n')
        with pytest.raises(ValueError, match=_located(path) + "undecodable"):
            records.load(path, self.DECODERS)

    def test_streamed_torn_tail_is_dropped(self):
        text = HEADER + '{"kind": "x", "v": 1}\n{"kind": "x", "v'
        assert records.loads(text, self.DECODERS) == [1]


class TestLoaderRegressions:
    """Inputs earlier loaders accepted or reported without a line number."""

    def _arrival_file(self, tmp_path, time_s):
        path = tmp_path / "arrivals.jsonl"
        path.write_text(
            '{"kind": "header", "n": 1, "version": 1}\n'
            '{"benchmark": "canneal", "kind": "arrival", "n_threads": 1, '
            f'"time_s": {time_s}}}\n'
        )
        return path

    @pytest.mark.parametrize("time_s", ["NaN", "Infinity", "-Infinity", "[1]", '"0.5"'])
    def test_arrival_time_must_be_a_finite_number(self, tmp_path, time_s):
        path = self._arrival_file(tmp_path, time_s)
        with pytest.raises(ValueError, match=_located(path)):
            load_arrival_trace(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"kind": "interval"}', "missing fields in interval record"),
            ("[1,2]", "expected an object"),
            ('{"kind": "interval", "time_s": 0, "dt_s": 1, "placements": [], '
             '"power_w": [], "temps_c": [], "frequencies_hz": [], "dtm_throttled": []}',
             "bad interval record: expected dict"),
            ('{"kind": "event", "time_s": 0, "event": 5, "data": {}}', "bad event record"),
        ],
    )
    def test_obs_trace_lines(self, tmp_path, line, message):
        path = tmp_path / "trace.jsonl"
        path.write_text(HEADER + line + "\n")
        with pytest.raises(ValueError, match=_located(path) + message):
            TraceRecorder.read_jsonl(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda line: "[" + line + "]", "expected an object"),
            (lambda line: line.replace('"start_s": ', '"start_s": NaN, "was": '), "non-finite number NaN"),
            (lambda line: line.replace('"links": [7, 9]', '"links": 7'), "bad span record"),
        ],
    )
    def test_span_lines(self, tmp_path, mutate, message):
        path = tmp_path / "spans.jsonl"
        path.write_text(HEADER + mutate(span_to_json_line(_spans()[-1])) + "\n")
        with pytest.raises(ValueError, match=_located(path) + ".*" + message):
            read_spans_jsonl(path)

    def test_cut_at_a_line_boundary_is_rejected_for_whole_files(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        build_mini_trace().write_jsonl(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2]))
        with pytest.raises(ValueError, match=_located(path) + "torn tail"):
            TraceRecorder.read_jsonl(path)

    def test_crashed_sink_reads_back_its_complete_lines(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        sink = JsonlTraceSink(path)
        build_mini_trace(sink)
        sink.flush()  # what a crash leaves: no close, maybe a torn line
        with path.open("a") as handle:
            handle.write('{"dt_s": 0.001, "kind": "interv')
        assert TraceRecorder.read_jsonl(path) == build_mini_trace()
        sink.close()


class TestFuzz:
    @pytest.mark.parametrize("name", sorted(FILE_TYPES))
    def test_every_truncation(self, name, tmp_path):
        path, read, expected, streamed = FILE_TYPES[name](tmp_path)
        data = path.read_bytes()
        header_end = data.index(b"\n") + 1
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            complete = data[:cut].count(b"\n") - 1
            if streamed and cut >= header_end:
                assert read(path) == expected[:complete], cut
            else:
                with pytest.raises(ValueError, match=_located(path)):
                    read(path)
        path.write_bytes(data)
        assert read(path) == expected

    @pytest.mark.parametrize("name", sorted(FILE_TYPES))
    def test_seeded_byte_damage(self, name, tmp_path):
        path, read, expected, _ = FILE_TYPES[name](tmp_path)
        data = path.read_bytes()
        rng = random.Random(sorted(FILE_TYPES).index(name))
        junk = [b"\xff", b"\n", b"{", b"]", b'"', b",", b"0", b"-", b"e9", b"NaN", b"null", b"\\"]
        for _ in range(300):
            damaged = bytearray(data)
            for _ in range(rng.randrange(1, 4)):
                at = rng.randrange(len(damaged))
                action = rng.randrange(3)
                if action == 0:
                    del damaged[at]
                elif action == 1:
                    damaged[at:at] = rng.choice(junk)
                else:
                    damaged[at:at + 1] = rng.choice(junk)
            path.write_bytes(bytes(damaged))
            try:
                read(path)
            except ValueError as exc:
                assert re.match(_located(path), str(exc)), str(exc)
