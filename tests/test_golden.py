"""Golden outputs in the tier-1 suite: the fig4b-light sweep, cell for cell.

``bench/golden.json`` pins the simulated statistics of every benchmark
sweep cell; ``python -m bench run`` checks all four workloads.  This test
runs the cheapest one (fig4b at 2 tasks/s, ten tasks) so every change to
the code proves "same behaviour" mechanically.
"""

from bench.golden import load, mismatches
from bench.worker import cell_stats, run_pass


def test_fig4b_light_cells_match_golden():
    golden = load()["fig4b-light"]
    result = run_pass("fig4b-light", golden["seed"])
    assert mismatches(golden["cells"], cell_stats(result)) == []
