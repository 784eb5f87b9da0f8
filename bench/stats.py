"""Order statistics and the regression verdict used by every command."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reportable only with this many samples beyond it.
MIN_BEYOND = 10

VERDICTS = ("improved", "flat", "regressed", "unresolved")
#: A gain is claimable only over at least this many pairs of runs: with
#: five, two identical sets of this benchmark read "improved" on two of
#: twenty (workload, metric) cells.
MIN_PAIRS = 10


def tail_percentile(n_samples: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n_samples * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile; ``inf`` samples sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[high] == ordered[low]:
        return float(ordered[low])
    if math.isinf(ordered[high]):
        return math.inf
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def verdict(
    base: Sequence[float], change: Sequence[float], bound: float, better: str
) -> str:
    """Classify a change against its parent for one metric and workload.

    ``regressed``: the change's median is worse than the parent's by more
    than ``bound`` (a share of the parent's median).  ``unresolved``: the
    parent's own spread is wider than the bound, unless every change run
    reads better than every parent run.  ``improved``: over at least
    ``MIN_PAIRS`` index-paired runs, the change wins nine tenths of the
    pairs (ties count for neither) and the medians differ by more than the
    parent's inter-quartile distance.  Otherwise ``flat``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    q1, med_base, q3 = quartiles(base)
    med_change = statistics.median(change)
    worse_by = sign * (med_change - med_base) / med_base if med_base else 0.0
    if worse_by > bound:
        return "regressed"
    # signed so that smaller reads better
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if spread(base) > bound and not all_better:
        return "unresolved"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and abs(med_change - med_base) > (q3 - q1)
    ):
        return "improved"
    return "flat"
