"""The golden comparator and the results-drift parser."""

from bench import golden


def test_golden_file_pins_every_workload():
    pinned = golden.load()
    assert set(pinned) == {"fig4a-closed", "fig4b-light", "fig4b-saturated", "serve-mixed"}
    assert pinned["serve-mixed"]["phase_a_sha256"]


def test_identical_outputs_have_no_mismatch():
    pinned = golden.load()["fig4a-closed"]["cells"]
    assert golden.mismatches(pinned, {k: dict(v) for k, v in pinned.items()}) == []


def test_one_perturbed_value_fails():
    pinned = golden.load()["fig4a-closed"]["cells"]
    actual = {k: dict(v) for k, v in pinned.items()}
    actual["canneal/hotpotato"]["makespan_s"] += 1e-15
    found = golden.mismatches(pinned, actual)
    assert len(found) == 1 and found[0].startswith("canneal/hotpotato/makespan_s")


def test_missing_extra_and_retyped_values_fail():
    assert golden.mismatches({"a": 1}, {}) == ["a: missing (expected 1)"]
    assert golden.mismatches({}, {"b": 2}) == ["b: unexpected 2"]
    assert golden.mismatches({"c": 1}, {"c": 1.0}) == ["c: expected 1, got 1.0"]


def test_results_drift_reads_matching_rows(tmp_path):
    (tmp_path / "fig4a.txt").write_text(
        "benchmark      PCMig makespan [ms]  HotPotato makespan [ms]  normalized  speedup [%]\n"
        "blackscholes   217.0                176.5                    0.813       +22.95     \n"
        "canneal        302.0                292.5                    0.969       +3.25      \n"
    )
    ours = {"blackscholes": {"pcmig": 217.0, "hotpotato": 177.0, "gain": 22.6}}
    lines = golden.results_drift("fig4a", ours, tmp_path)
    assert lines == [
        "results drift fig4a blackscholes: PCMig 217.0 ms (results 217.0), "
        "HotPotato 177.0 ms (results 176.5), gain +22.60 % (results +22.95)"
    ]
    assert golden.results_drift("fig4b", ours, tmp_path) == []
