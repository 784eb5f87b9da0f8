"""Property-based tests on the Poisson arrival process (docs/traffic.md).

Schedules are non-decreasing, finite and non-negative; identical seeds
give byte-identical schedules; and the draw is, bit for bit, the one raw
exponential draw the paper's Fig. 4b sweep has always used.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import small_test
from repro.experiments import fig4b
from repro.traffic import PoissonProcess, assign_arrivals, write_arrival_trace
from repro.workload.generator import random_mixed_workload

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_seeds = st.integers(0, 2**31 - 1)
_rates = st.floats(0.5, 500.0, allow_nan=False, allow_infinity=False)


# -- the universal schedule contract ----------------------------------------


@_SETTINGS
@given(seed=_seeds, rate=_rates, n=st.integers(0, 60))
def test_schedules_are_finite_nonnegative_nondecreasing(seed, rate, n):
    times = PoissonProcess(rate).sample(n, seed=seed)
    assert times.shape == (n,)
    assert np.all(np.isfinite(times))
    if n:
        assert times[0] >= 0.0
    assert np.all(np.diff(times) >= 0.0)


@_SETTINGS
@given(seed=_seeds, rate=_rates)
def test_identical_seeds_are_byte_identical(seed, rate):
    process = PoissonProcess(rate)
    first = process.sample(40, seed=seed)
    again = process.sample(40, seed=seed)
    assert np.array_equal(first, again)


@given(seed=st.integers(0, 500))
@_SETTINGS
def test_distinct_seeds_differ(seed):
    process = PoissonProcess(30.0)
    assert not np.array_equal(
        process.sample(20, seed=seed), process.sample(20, seed=seed + 1)
    )


def test_poisson_matches_legacy_draw_bytes():
    """PoissonProcess is one raw exponential draw, cumsummed, bit for bit."""
    process = PoissonProcess(30.0)
    times = process.sample(25, seed=11)
    legacy = np.random.default_rng(11).exponential(1.0 / 30.0, 25).cumsum()
    assert np.array_equal(times, legacy)


# -- validation and construction ----------------------------------------------


class TestContractValidation:
    def test_negative_n_is_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            PoissonProcess(1.0).sample(-1)

    def test_bad_rates_rejected(self):
        for rate in (0.0, -1.0):
            with pytest.raises(ValueError, match="rate must be positive"):
                PoissonProcess(rate)


def _trace_with_times(path, times):
    """A valid arrival trace whose records carry ``times``, in file order."""
    write_arrival_trace(path, random_mixed_workload(len(times), seed=5))
    lines = path.read_text().splitlines()
    for i, time_s in enumerate(times, start=1):
        record = json.loads(lines[i])
        record["time_s"] = time_s
        lines[i] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestTraceReplay:
    """fig4b refuses to replay a trace whose schedule breaks the contract."""

    def test_non_monotonic_trace_rejected(self, tmp_path):
        path = _trace_with_times(tmp_path / "t.jsonl", [0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="non-monotonic"):
            fig4b.run(small_test(), arrival_rates_per_s=(1.0,), trace_path=path)

    def test_negative_trace_rejected(self, tmp_path):
        path = _trace_with_times(tmp_path / "t.jsonl", [-1.0, 2.0])
        with pytest.raises(ValueError, match="negative"):
            fig4b.run(small_test(), arrival_rates_per_s=(1.0,), trace_path=path)


# -- spec assignment and the id/arrival ordering contract ---------------------


class TestAssignArrivals:
    def test_result_is_sorted_by_arrival(self):
        specs = random_mixed_workload(12, seed=3)
        assigned = assign_arrivals(specs, PoissonProcess(20.0), seed=8)
        times = [s.arrival_time_s for s in assigned]
        assert times == sorted(times)
        assert len(assigned) == len(specs)

    def test_poisson_matches_raw_draw_with_payload_pairing(self):
        """assign_arrivals(PoissonProcess) stamps the raw exponential draw,
        bit for bit: spec ``i`` gets the ``i``-th cumulative gap."""
        specs = random_mixed_workload(10, seed=2)
        via_process = assign_arrivals(specs, PoissonProcess(40.0), seed=6)
        raw = np.random.default_rng(6).exponential(1.0 / 40.0, 10).cumsum()
        assert [
            (s.profile.name, s.n_threads, s.arrival_time_s)
            for s in via_process
        ] == [
            (s.profile.name, s.n_threads, float(at))
            for s, at in zip(specs, raw)
        ]
