"""The committed ``results/<name>.txt`` reports, byte for byte.

Each file is what ``python -m repro.experiments <name>`` prints: a banner
naming the experiment, then the rendered report.  The fast experiments
are re-rendered here and compared with the file verbatim.
"""

from pathlib import Path

import pytest

from repro.experiments.__main__ import _run_one

RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.mark.parametrize("name", ["table1", "fig1", "fig2", "fig3", "stacked3d"])
def test_rendered_report_matches_results_file(name):
    bar = "=" * 72
    printed = f"\n{bar}\n{name}\n{bar}\n{_run_one(name, False).render()}\n"
    assert printed == (RESULTS / f"{name}.txt").read_text()
