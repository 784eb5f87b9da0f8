"""Experiment modules: fast structural checks (full runs live in benchmarks/)."""

import pytest

from repro import config
from repro.experiments import fig2, fig3, overhead, table1


class TestTable1:
    def test_rows_match_paper(self):
        report = table1.run()
        as_dict = dict(report.rows)
        assert as_dict["Number of Cores"] == "64"
        assert "4.0 GHz" in as_dict["Core Model"]
        assert as_dict["NoC link width"] == "256 Bit"
        assert as_dict["The area of core"] == "0.81 mm^2"
        assert as_dict["Idle core power"] == "0.3 W"

    def test_render_contains_title(self):
        assert "Table I" in table1.run().render()

    def test_custom_config(self):
        report = table1.run(config.motivational())
        assert dict(report.rows)["Number of Cores"] == "16"


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self, model64):
        return fig3.run(model=model64)

    def test_ring_count(self, result):
        assert len(result.rings) == 9

    def test_monotonicity_helpers(self, result):
        assert result.performance_monotone()
        assert result.thermals_monotone()

    def test_render(self, result):
        text = result.render()
        assert "Fig. 3" in text
        assert "ring map" in text

    def test_small_platform(self, model16):
        result = fig3.run(config.motivational(), model=model16)
        assert len(result.rings) == 3


class TestOverhead:
    def test_measures_positive_times(self, model64):
        result = overhead.run(model=model64, n_repetitions=5)
        assert result.peak_eval_us > 0
        assert result.admit_decision_us > 0
        assert result.design_time_s > 0
        assert result.n_cores == 64

    def test_render_mentions_paper_number(self, model64):
        result = overhead.run(model=model64, n_repetitions=5)
        assert "23.76" in result.render()


class TestFig2Structure:
    """One shared (slow-ish) run; the heavy shape checks live in
    benchmarks/test_fig2_motivational.py."""

    @pytest.fixture(scope="class")
    def result(self, model16):
        return fig2.run(model=model16, max_time_s=0.5)

    def test_three_variants(self, result):
        assert set(result.results) == {"none", "tsp-dvfs", "rotation"}

    def test_each_completed_the_task(self, result):
        for outcome in result.results.values():
            assert len(outcome.tasks) == 1

    def test_render(self, result):
        text = result.render()
        assert "paper" in text.lower()
        assert "rotation" in text


class TestCli:
    def test_main_table1(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["nope"])

    @pytest.mark.parametrize("value", ["auto", "2.5", "0"])
    def test_jobs_takes_a_positive_int(self, capsys, value):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["fig4a", "--quick", "--jobs", value])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_traffic_option_is_gone(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["fig4b", "--traffic", "diurnal"])
        assert exc.value.code == 2
        assert "--traffic" in capsys.readouterr().err

    def test_trace_path_only_applies_to_fig4b(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["table1", "--trace-path", "x.jsonl"])
        assert exc.value.code == 2
        assert "--trace-path only applies to fig4b" in capsys.readouterr().err


_ARRIVAL = {
    "benchmark": "blackscholes",
    "n_threads": 2,
    "seed": 0,
    "time_s": 0.0,
    "work_scale": 1.0,
}


class TestCliTraceErrors:
    """A malformed ``--trace-path`` ends the run with exit code 2 and a
    one-line error, before any fig4b cell simulates; so does a trace under
    which a cell completes no task."""

    @pytest.mark.parametrize(
        "arrivals, message",
        [
            ([], "{path}: the arrival trace has no arrivals"),
            (
                [dict(_ARRIVAL, bogus=3)],
                "{path}:2: bad arrival record: unknown field 'bogus'",
            ),
            (
                [dict(_ARRIVAL, n_threads=65)],
                "task 0 has 65 threads, more than the chip's 64 cores",
            ),
            (
                [dict(_ARRIVAL, time_s=100.0), dict(_ARRIVAL, time_s=120.0)],
                "{path}: every arrival falls at or past the horizon; "
                "the first arrives at time_s 100.0, max_time_s is 60.0",
            ),
        ],
        ids=["empty", "unknown-field", "wider-than-the-chip", "past-the-horizon"],
    )
    def test_exits_2(self, tmp_path, monkeypatch, capsys, arrivals, message):
        from repro import records
        from repro.experiments import fig4b
        from repro.experiments.__main__ import main

        def never(*_args, **_kwargs):
            raise AssertionError("a cell simulated")

        monkeypatch.setattr(fig4b.IntervalSimulator, "run", never)
        path = tmp_path / "arrivals.jsonl"
        path.write_text(records.dumps(("arrival", a) for a in arrivals))
        assert main(["fig4b", "--quick", "--trace-path", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("python -m repro.experiments: error: ")
        assert err.count("\n") == 1
        assert message.format(path=path) in err

    def test_no_completed_task_exits_2(self, tmp_path, monkeypatch, capsys):
        """A trace whose one task arrives in time but cannot finish before
        the horizon names the file and the cell that completed nothing."""
        from repro import records
        from repro.experiments import fig4b
        from repro.experiments.__main__ import main

        run = fig4b.IntervalSimulator.run

        def short_horizon(sim, max_time_s):
            return run(sim, max_time_s=0.05)  # blackscholes needs ~67 ms

        monkeypatch.setattr(fig4b.IntervalSimulator, "run", short_horizon)
        path = tmp_path / "arrivals.jsonl"
        path.write_text(records.dumps([("arrival", dict(_ARRIVAL, time_s=0.01))]))
        assert main(["fig4b", "--quick", "--trace-path", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}: cell (rate 10/s, pcmig) completed no task" in err
