"""Byte-identity pins for the text outputs of ``python -m repro.obs``.

The CLI is how obs artifacts are read, so its text is a contract: the
exact stdout of ``summarize``, ``check``, ``spans summarize`` and
``spans slowest``, and the OpenMetrics file ``export`` writes, are pinned
against the files in ``tests/obs/golden/``.  Inputs are deterministic:
the hand-built miniature trace (``build_mini_trace``) and a span file
written through :mod:`repro.records` with fixed start times and
durations.  Every command runs with the inputs in its working directory,
so the paths it echoes are the same on every machine.
"""

from pathlib import Path

import pytest

from repro.obs.spans import SpanRecord, spans_to_jsonl
from repro.records import atomic_write

from .conftest import build_mini_trace
from .test_cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Four traces: a nested request, a slow request with an error child, an
#: orphaned span (its parent is not in the file) and a linked request.
FIXED_SPANS = (
    SpanRecord(1, 1, None, "http.peak", 10.0, 0.004, attrs={"endpoint": "peak"}),
    SpanRecord(1, 2, 1, "batch.wait", 10.001, 0.002),
    SpanRecord(2, 3, None, "http.simulate", 11.0, 0.012),
    SpanRecord(2, 4, 3, "phase.compute", 11.002, 0.009, status="error: boom"),
    SpanRecord(3, 5, 99, "batch.flush", 12.0, 0.0005, links=(1, 6)),
    SpanRecord(4, 6, None, "http.peak", 13.0, 0.0025, attrs={"endpoint": "peak"}),
)

#: (golden stdout file, CLI arguments, expected exit status).
CASES = (
    ("summarize.txt", ("summarize", "mini.jsonl"), 0),
    ("check.txt", ("check", "mini.jsonl", "--bound-c", "71"), 1),
    ("spans_summarize.txt", ("spans", "summarize", "spans.jsonl"), 0),
    ("spans_slowest.txt", ("spans", "slowest", "spans.jsonl", "--limit", "3"), 0),
    ("export.txt", ("export", "mini.jsonl", "-o", "mini.prom"), 0),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_text")
    build_mini_trace().write_jsonl(directory / "mini.jsonl")
    atomic_write(directory / "spans.jsonl", spans_to_jsonl(FIXED_SPANS))
    return directory


@pytest.mark.parametrize(
    "golden, args, status", CASES, ids=[case[0] for case in CASES]
)
def test_stdout_is_byte_identical(workdir, golden, args, status):
    proc = run_cli(*args, cwd=workdir)
    assert proc.returncode == status, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()


def test_openmetrics_file_is_byte_identical(workdir):
    proc = run_cli("export", "mini.jsonl", "-o", "pinned.prom", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "pinned.prom").read_bytes() == (
        GOLDEN / "export.prom"
    ).read_bytes()
