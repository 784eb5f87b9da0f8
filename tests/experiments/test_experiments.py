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
