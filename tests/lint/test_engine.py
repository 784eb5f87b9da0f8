"""Rule engine mechanics: findings, suppression, baseline, registry."""

import json

import pytest

from repro.lint import (
    Finding,
    default_rules,
    load_baseline,
    partition,
    rule_families,
    rule_ids,
    run_lint,
    save_baseline,
)
from repro.lint.engine import PARSE_ERROR_RULE


class TestFinding:
    def test_ordering_is_by_location_then_rule(self):
        a = Finding("a.py", 3, "rule-b", "m")
        b = Finding("a.py", 5, "rule-a", "m")
        c = Finding("b.py", 1, "rule-a", "m")
        assert sorted([c, b, a]) == [a, b, c]

    def test_round_trips_through_dict(self):
        finding = Finding(
            "x.py", 7, "unit-raw-literal", "msg", "error", "unit-safety"
        )
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_fingerprint_ignores_line(self):
        a = Finding("x.py", 7, "r", "m")
        b = Finding("x.py", 99, "r", "m")
        assert a.fingerprint == b.fingerprint

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Finding("x.py", 1, "r", "m", severity="fatal")


class TestRegistry:
    def test_default_rules_cover_the_seven_families(self):
        families = {rule.family for rule in default_rules()}
        assert families == {
            "unit-safety",
            "determinism",
            "frozen-config",
            "scheduler-contract",
            "public-api",
            "faults",
            "async-safety",
        }

    def test_rule_families_sorted_and_distinct(self):
        families = rule_families()
        assert families == sorted(set(families))
        assert "async-safety" in families

    def test_rule_ids_unique_and_sorted(self):
        ids = rule_ids()
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_every_rule_has_description(self):
        for rule in default_rules():
            assert rule.id and rule.family and rule.description


class TestEngine:
    def test_syntax_error_becomes_parse_finding(self, lint_files):
        findings = lint_files({"broken.py": "def broken(:\n"})
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint(["no/such/dir"])

    def test_findings_sorted_by_path_and_line(self, lint_files):
        findings = lint_files(
            {
                "b.py": "tau_s = 1.0e-3\n",
                "a.py": '"""doc."""\nwindow_s = 1.0e-3\nother_s = 2.0e-3\n',
            }
        )
        locations = [(f.path, f.line) for f in findings]
        assert locations == sorted(locations)


class TestSuppression:
    def test_bare_ignore_suppresses_everything(self, lint_files):
        findings = lint_files(
            {"mod.py": '"""doc."""\ntau_s = 1.0e-3  # lint: ignore\n'}
        )
        assert findings == []

    def test_ignore_by_rule_id(self, lint_files):
        findings = lint_files(
            {
                "mod.py": (
                    '"""doc."""\n'
                    "tau_s = 1.0e-3  # lint: ignore[unit-raw-literal]\n"
                )
            }
        )
        assert findings == []

    def test_ignore_by_family(self, lint_files):
        findings = lint_files(
            {
                "mod.py": (
                    '"""doc."""\n'
                    "tau_s = 1.0e-3  # lint: ignore[unit-safety]\n"
                )
            }
        )
        assert findings == []

    def test_ignore_of_other_rule_does_not_suppress(self, lint_files):
        findings = lint_files(
            {
                "mod.py": (
                    '"""doc."""\n'
                    "tau_s = 1.0e-3  # lint: ignore[det-wallclock]\n"
                )
            }
        )
        assert [f.rule for f in findings] == ["unit-raw-literal"]


class TestBaseline:
    def test_round_trip_and_partition(self, tmp_path):
        old = Finding("x.py", 3, "unit-raw-literal", "legacy")
        new = Finding("y.py", 9, "det-wallclock", "fresh")
        path = tmp_path / "baseline.json"
        save_baseline(path, [old])
        fingerprints = load_baseline(path)
        fresh, grandfathered = partition([old, new], fingerprints)
        assert fresh == [new]
        assert grandfathered == [old]

    def test_baseline_survives_line_drift(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(path, [Finding("x.py", 3, "r", "m")])
        moved = Finding("x.py", 33, "r", "m")
        fresh, grandfathered = partition([moved], load_baseline(path))
        assert fresh == []
        assert grandfathered == [moved]

    def test_rejects_malformed_baseline(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "fingerprints": []}))
        with pytest.raises(ValueError):
            load_baseline(path)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load_baseline(path)
