"""The quantile rule and the compare verdicts."""

import math

import pytest

from bench.stats import percentile, quartiles, spread, tail_percentile, verdict


@pytest.mark.parametrize(
    "n, expected",
    [
        (10000, 99.9),
        (1000, 99.0),
        (999, 95.0),
        (500, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_and_counts_failures_as_infinite():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([5.0], 95.0) == 5.0
    assert percentile([1.0, 2.0, math.inf], 50.0) == 2.0
    assert percentile([1.0, 2.0, math.inf], 99.0) == math.inf


def test_quartiles_match_statistics_quantiles():
    q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]


def test_verdict_flat_within_noise():
    assert verdict(BASE, [v * 1.01 for v in BASE], 0.1, "lower") == "flat"


def test_verdict_regressed_beyond_the_bound():
    assert verdict(BASE, [v * 1.2 for v in BASE], 0.1, "lower") == "regressed"
    assert verdict(BASE, [v * 0.8 for v in BASE], 0.1, "higher") == "regressed"


def test_verdict_improved_needs_nine_tenths_of_pairs():
    faster = [v * 0.8 for v in BASE]
    assert verdict(BASE, faster, 0.1, "lower") == "improved"
    # two of ten pairs lost: no longer a claimable gain
    mixed = faster[:8] + [v * 1.05 for v in BASE[8:]]
    assert verdict(BASE, mixed, 0.1, "lower") == "flat"
    # five pairs, all won: too few to claim a gain
    assert verdict(BASE[:5], faster[:5], 0.1, "lower") == "flat"


def test_verdict_unresolved_when_the_parent_spread_exceeds_the_bound():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    assert verdict(noisy, [v * 1.02 for v in noisy], 0.1, "lower") == "unresolved"
    # every change run better than every parent run resolves it
    assert verdict(noisy, [5.0] * 10, 0.1, "lower") == "improved"
