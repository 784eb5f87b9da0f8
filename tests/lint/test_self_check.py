"""Self-check: the committed tree lints clean and the CLI gate works.

This is the tier-1 wiring of the domain lint: ``src/repro`` must produce
zero findings (the committed baseline is empty), and introducing a
positive-case snippet from any of the seven rule families must flip the
CLI to exit status 1.  The ``async-safety`` snippet is deliberately
*transitive* — the async def reaches ``time.sleep`` only through a sync
helper, which is exactly what the per-file rules could never see.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "lint-baseline.json"

#: One positive-case snippet per rule family, written under the path at
#: which its family applies.
FAMILY_SNIPPETS = {
    "unit-safety": ("repro/mod.py", '"""doc."""\ntau_s = 0.5e-3\n'),
    "determinism": (
        "repro/sim/mod.py",
        '"""doc."""\nimport time\nstamp = time.time()\n',
    ),
    "frozen-config": (
        "repro/mod.py",
        '"""doc."""\ndef f(cfg):\n    cfg.mesh_width = 2\n',
    ),
    "scheduler-contract": (
        "repro/sched/mod.py",
        '"""doc."""\n'
        "from .base import Scheduler\n"
        "class LonelyScheduler(Scheduler):\n"
        "    def decide(self):\n"
        "        return None\n",
    ),
    "public-api": ("repro/mod.py", '"""doc."""\n__all__ = ["ghost"]\n'),
    "async-safety": (
        "repro/serve/mod.py",
        '"""doc."""\n'
        "import time\n"
        "def helper():\n"
        "    time.sleep(0.1)\n"
        "async def handler():\n"
        "    return helper()\n",
    ),
    "faults": (
        "repro/sched/mod.py",
        '"""doc."""\ndef f(ctx):\n    return ctx.core_temperatures_c()\n',
    ),
}


def _cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.mark.lint
class TestTreeIsClean:
    def test_library_self_check(self):
        findings = run_lint([SRC])
        assert findings == [], [f.to_dict() for f in findings]

    def test_cli_gate_with_committed_baseline(self):
        result = _cli(
            "check", str(SRC), "--baseline", str(BASELINE), "--json"
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["findings"] == []

    def test_committed_baseline_is_empty(self):
        data = json.loads(BASELINE.read_text())
        assert data["fingerprints"] == []


@pytest.mark.lint
class TestGateFiresPerFamily:
    @pytest.mark.parametrize(
        "family", sorted(FAMILY_SNIPPETS), ids=sorted(FAMILY_SNIPPETS)
    )
    def test_positive_snippet_flips_exit_to_1(self, tmp_path, family):
        relpath, code = FAMILY_SNIPPETS[family]
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code))
        result = _cli("check", str(tmp_path), "--json", cwd=tmp_path)
        assert result.returncode == 1, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        families = {f["family"] for f in payload["findings"]}
        assert family in families

    def test_error_exit_is_2(self, tmp_path):
        result = _cli("check", str(tmp_path / "missing"), cwd=tmp_path)
        assert result.returncode == 2
        assert "error:" in result.stderr


@pytest.mark.lint
class TestFamilySelection:
    """Families are selectors everywhere rule ids are (satellite fix)."""

    def test_select_family_runs_all_members(self, tmp_path):
        result = _cli("rules", "--select", "async-safety", "--json")
        assert result.returncode == 0, result.stderr
        rules = json.loads(result.stdout)
        assert {r["id"] for r in rules} == {
            "async-blocking-call",
            "async-contextvar-leak",
            "async-lock-across-blocking",
            "async-shared-mutation",
            "async-unawaited-coroutine",
        }
        assert all(r["family"] == "async-safety" for r in rules)

    def test_check_json_records_carry_family(self, tmp_path):
        relpath, code = FAMILY_SNIPPETS["async-safety"]
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code))
        result = _cli(
            "check", str(tmp_path), "--select", "async-safety", "--json",
            cwd=tmp_path,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["families"] == ["async-safety"]
        assert all(
            f["family"] == "async-safety" for f in payload["findings"]
        )

    def test_unknown_family_is_usage_error(self, tmp_path):
        result = _cli("check", "--select", "no-such-family", cwd=tmp_path)
        assert result.returncode == 2
        assert "unknown rule ids/families" in result.stderr


@pytest.mark.lint
class TestCliHygiene:
    def test_check_json_writes_no_file_and_has_no_cache_key(self, tmp_path):
        tree = tmp_path / "tree"
        (tree / "repro").mkdir(parents=True)
        (tree / "repro" / "mod.py").write_text('"""doc."""\nx = 1\n')
        workdir = tmp_path / "work"
        workdir.mkdir()
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        result = _cli("check", str(tree), "--json", cwd=workdir)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "cache" not in json.loads(result.stdout)
        after = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert after == before  # nothing written in the cwd or the tree


@pytest.mark.lint
class TestGraphDump:
    def test_dump_is_json_with_function_summaries(self):
        result = _cli(
            "check", str(SRC / "serve" / "http.py"), "--graph-dump"
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        functions = payload["functions"]
        handler = functions[
            "repro.serve.http.ThermalServer._handle_connection"
        ]
        assert handler["async"] is True
        assert handler["awaits"] >= 3
