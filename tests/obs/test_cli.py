"""``python -m repro.obs`` smoke tests: real subprocess, real run artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import config
from repro.obs import parse_openmetrics
from repro.sched.fixed_rotation import FixedRotationScheduler
from repro.sim.engine import IntervalSimulator
from repro.workload.benchmarks import PARSEC
from repro.workload.task import Task

from .conftest import build_mini_trace

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _SRC + (os.pathsep + existing if existing else "")
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def _record_run(trace_path, result_path):
    from repro.io import save_result

    cfg = config.small_test().with_observability(trace=True, metrics=True)
    tasks = [Task(0, PARSEC["blackscholes"], n_threads=2, seed=3)]
    sim = IntervalSimulator(cfg, FixedRotationScheduler(), tasks)
    result = sim.run(max_time_s=0.01)
    sim.observer.trace.write_jsonl(trace_path)
    save_result(result, result_path)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Two identical-seed ``fixed_rotation`` runs plus the synthetic trace."""
    root = tmp_path_factory.mktemp("cli")
    _record_run(root / "run_a.jsonl", root / "run_a.json")
    _record_run(root / "run_b.jsonl", root / "run_b.json")
    build_mini_trace().write_jsonl(root / "mini.jsonl")
    return root


class TestSummarize:
    def test_human_output(self, artifacts):
        proc = run_cli(
            "summarize", str(artifacts / "run_a.jsonl"), "--config", "small_test"
        )
        assert proc.returncode == 0, proc.stderr
        assert "peak" in proc.stdout
        assert "derived statistics" in proc.stdout

    def test_json_output_is_flat(self, artifacts):
        proc = run_cli("summarize", str(artifacts / "run_a.jsonl"), "--json")
        assert proc.returncode == 0, proc.stderr
        flat = json.loads(proc.stdout)
        assert flat["thermal.peak_c"] > 0
        assert all(isinstance(v, (int, float)) for v in flat.values())


class TestCheck:
    def test_clean_run_exits_zero(self, artifacts):
        proc = run_cli(
            "check", str(artifacts / "run_a.jsonl"), "--config", "small_test"
        )
        assert proc.returncode == 0, proc.stderr
        assert "no violations detected" in proc.stdout

    def test_violating_trace_exits_nonzero_and_locates(self, artifacts):
        # the synthetic trace breaks a 71 C bound in exactly one interval:
        # start 2 ms, core 0
        proc = run_cli(
            "check", str(artifacts / "mini.jsonl"), "--bound-c", "71", "--json"
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        violations = json.loads(proc.stdout)
        located = [v for v in violations if v["detector"] == "analytic-bound"]
        assert len(located) == 1
        assert located[0]["time_s"] == pytest.approx(2e-3)
        assert located[0]["core"] == 0


class TestDiff:
    def test_identical_seed_runs_do_not_drift(self, artifacts):
        proc = run_cli(
            "diff",
            str(artifacts / "run_a.jsonl"),
            str(artifacts / "run_b.jsonl"),
            "--config",
            "small_test",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no drift" in proc.stdout

    def test_snapshot_drift_detected(self, artifacts, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"m.count": 1.0}))
        (tmp_path / "b.json").write_text(json.dumps({"m.count": 3.0}))
        proc = run_cli("diff", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
        assert proc.returncode == 1
        assert "m.count" in proc.stdout
        # ...and a wide-enough tolerance accepts it
        proc = run_cli(
            "diff",
            str(tmp_path / "a.json"),
            str(tmp_path / "b.json"),
            "--tolerance",
            "5",
        )
        assert proc.returncode == 0


class TestExport:
    def test_openmetrics_from_result_json(self, artifacts, tmp_path):
        out = tmp_path / "metrics.prom"
        proc = run_cli(
            "export",
            str(artifacts / "run_a.json"),
            "-o",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        parsed = parse_openmetrics(out.read_text())
        assert parsed  # non-empty, strictly valid exposition

    def test_bad_input_reports_error(self, tmp_path):
        proc = run_cli(
            "export",
            str(tmp_path / "missing.json"),
            "-o",
            str(tmp_path / "out.prom"),
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr


class TestSpansSubcommand:
    @pytest.fixture(scope="class")
    def span_file(self, tmp_path_factory):
        from repro.obs.spans import SpanTracer

        tracer = SpanTracer(enabled=True)
        for index in range(3):
            with tracer.span("http.peak", endpoint="peak"):
                with tracer.span("batch.wait"):
                    pass
        path = tmp_path_factory.mktemp("spans") / "spans.jsonl"
        tracer.write_jsonl(path)
        return path

    def test_summarize_json(self, span_file):
        proc = run_cli("spans", "summarize", str(span_file), "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["spans"] == 6
        assert payload["traces"] == 3
        assert payload["by_name"]["http.peak"]["count"] == 3

    def test_summarize_human(self, span_file):
        proc = run_cli("spans", "summarize", str(span_file))
        assert proc.returncode == 0, proc.stderr
        assert "http.peak" in proc.stdout and "batch.wait" in proc.stdout

    def test_slowest_ranks_by_duration(self, span_file):
        proc = run_cli("spans", "slowest", str(span_file), "--json", "--limit", "2")
        assert proc.returncode == 0, proc.stderr
        ranked = json.loads(proc.stdout)
        assert len(ranked) == 2
        durations = [entry["duration_s"] for entry in ranked]
        assert durations == sorted(durations, reverse=True)
        assert all(entry["root"] == "http.peak" for entry in ranked)

    def test_wrong_kind_file_names_what_it_holds(self, span_file):
        proc = run_cli("summarize", str(span_file))
        assert proc.returncode != 0
        assert "holds no interval records (found: span)" in proc.stderr

    def test_empty_file_reports_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        proc = run_cli("spans", "summarize", str(empty))
        assert proc.returncode != 0
