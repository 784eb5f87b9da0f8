"""Property-based tests on the arrival processes (docs/traffic.md).

The invariants every process promises (and the scenario-matrix suite
leans on): schedules are non-decreasing, finite and non-negative; the
diurnal rate never exceeds its thinning envelope; a flash crowd is a
superset of the base arrivals it kept; identical seeds give
byte-identical schedules; and — the metamorphic anchor — a flash crowd
whose every burst has rate zero *is* its base process, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.traffic import (
    ArrivalProcess,
    Burst,
    DiurnalProcess,
    FlashCrowd,
    PoissonProcess,
    TRAFFIC_PATTERNS,
    TraceReplay,
    assign_arrivals,
    build_process,
)
from repro.workload.generator import random_mixed_workload

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_seeds = st.integers(0, 2**31 - 1)
_rates = st.floats(0.5, 500.0, allow_nan=False, allow_infinity=False)


def _processes(rate: float) -> list:
    """One instance of every synthetic process at the given base rate."""
    return [
        PoissonProcess(rate),
        DiurnalProcess(rate, amplitude=0.7, period_s=3.0),
        FlashCrowd(
            PoissonProcess(rate),
            (Burst(start_s=0.5, duration_s=0.25, rate_per_s=4.0 * rate),),
        ),
    ]


# -- the universal schedule contract ----------------------------------------


@_SETTINGS
@given(seed=_seeds, rate=_rates, n=st.integers(0, 60))
def test_schedules_are_finite_nonnegative_nondecreasing(seed, rate, n):
    for process in _processes(rate):
        times = process.sample(n, seed=seed)
        assert times.shape == (n,)
        assert np.all(np.isfinite(times))
        if n:
            assert times[0] >= 0.0
        assert np.all(np.diff(times) >= 0.0)


@_SETTINGS
@given(seed=_seeds, rate=_rates)
def test_identical_seeds_are_byte_identical(seed, rate):
    for process in _processes(rate):
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


# -- diurnal thinning ---------------------------------------------------------


@_SETTINGS
@given(
    seed=_seeds,
    rate=_rates,
    amplitude=st.floats(0.0, 1.0),
    t=st.floats(0.0, 1e4),
)
def test_diurnal_rate_never_exceeds_peak(seed, rate, amplitude, t):
    process = DiurnalProcess(rate, amplitude=amplitude, period_s=7.0)
    assert process.rate_at(t) <= process.peak_rate_per_s + 1e-9
    assert process.rate_at(t) >= rate * (1.0 - amplitude) - 1e-9


@_SETTINGS
@given(seed=_seeds, amplitude=st.floats(0.0, 1.0))
def test_diurnal_accepted_subset_of_candidates(seed, amplitude):
    process = DiurnalProcess(20.0, amplitude=amplitude, period_s=2.0)
    candidates, mask = process.thinning_trace(30, seed=seed)
    accepted = process.sample(30, seed=seed)
    assert np.array_equal(candidates[mask], accepted)
    assert mask.sum() == 30
    # thinning only removes candidates, never invents arrivals
    assert len(candidates) >= 30


def test_zero_amplitude_diurnal_is_plain_poisson_stream():
    """With amplitude 0 the acceptance test always passes, so every
    candidate (drawn at the peak == base rate) is kept."""
    process = DiurnalProcess(30.0, amplitude=0.0, period_s=5.0)
    candidates, mask = process.thinning_trace(20, seed=4)
    assert mask.all()
    assert np.array_equal(candidates, process.sample(20, seed=4))


# -- flash crowds -------------------------------------------------------------


@_SETTINGS
@given(seed=_seeds, rate=st.floats(1.0, 100.0))
def test_flash_crowd_is_superset_of_kept_base_arrivals(seed, rate):
    burst = Burst(start_s=0.2, duration_s=0.3, rate_per_s=5.0 * rate)
    crowd = FlashCrowd(PoissonProcess(rate), (burst,))
    n = 40
    merged = crowd.sample(n, seed=seed)
    extra = crowd.burst_times(seed=seed)
    n_extra = min(len(extra), n)
    base_kept = crowd.base.sample_times(
        n - n_extra, np.random.default_rng(seed), seed
    )
    merged_list = list(merged)
    for t in base_kept:
        assert t in merged_list
    for t in extra[:n_extra]:
        assert t in merged_list
    assert len(merged) == n


@_SETTINGS
@given(seed=_seeds, rate=st.floats(1.0, 100.0), n=st.integers(0, 50))
def test_zero_rate_burst_is_bitwise_base(seed, rate, n):
    """The metamorphic anchor: a zero-amplitude (zero-rate) burst overlay
    must be *bit-for-bit* the base process — the overlay consumes no
    randomness at all."""
    base = PoissonProcess(rate)
    crowd = FlashCrowd(
        base,
        (
            Burst(start_s=0.1, duration_s=0.5, rate_per_s=0.0),
            Burst(start_s=1.0, duration_s=0.2, rate_per_s=0.0),
        ),
    )
    assert np.array_equal(crowd.sample(n, seed=seed), base.sample(n, seed=seed))


def test_burst_times_are_pure_in_seed_and_sorted():
    crowd = FlashCrowd(
        PoissonProcess(10.0),
        (
            Burst(start_s=0.0, duration_s=1.0, rate_per_s=30.0),
            Burst(start_s=2.0, duration_s=1.0, rate_per_s=30.0),
        ),
    )
    first = crowd.burst_times(seed=5)
    assert np.array_equal(first, crowd.burst_times(seed=5))
    assert np.all(np.diff(first) >= 0)
    # burst windows are respected
    assert ((first <= 1.0) | ((first >= 2.0) & (first <= 3.0))).all()


# -- trace replay -------------------------------------------------------------


class TestTraceReplay:
    def test_replays_verbatim_prefix(self):
        replay = TraceReplay([0.0, 0.5, 1.25, 4.0])
        assert np.array_equal(replay.sample(3, seed=99), [0.0, 0.5, 1.25])

    def test_requesting_beyond_the_trace_fails(self):
        with pytest.raises(ValueError, match="holds 2 arrivals"):
            TraceReplay([0.0, 1.0]).sample(3)

    def test_non_monotonic_trace_rejected(self):
        with pytest.raises(ValueError, match="non-monotonic"):
            TraceReplay([0.0, 2.0, 1.0])

    def test_negative_trace_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TraceReplay([-1.0, 2.0])


# -- validation and construction ----------------------------------------------


class _LyingProcess(ArrivalProcess):
    name = "lying"

    def sample_times(self, n, rng, seed=0):
        return np.linspace(float(n), 0.0, n)  # decreasing on purpose


class TestContractValidation:
    def test_decreasing_schedule_is_rejected(self):
        with pytest.raises(ValueError, match="decreased"):
            _LyingProcess().sample(5)

    def test_negative_n_is_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            PoissonProcess(1.0).sample(-1)

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError):
            PoissonProcess(0.0)
        with pytest.raises(ValueError):
            DiurnalProcess(-1.0)
        with pytest.raises(ValueError):
            DiurnalProcess(1.0, amplitude=1.5)
        with pytest.raises(ValueError):
            DiurnalProcess(1.0, period_s=0.0)

    def test_bad_bursts_rejected(self):
        with pytest.raises(ValueError):
            Burst(start_s=-0.1, duration_s=1.0, rate_per_s=1.0)
        with pytest.raises(ValueError):
            Burst(start_s=0.0, duration_s=0.0, rate_per_s=1.0)
        with pytest.raises(ValueError):
            Burst(start_s=0.0, duration_s=1.0, rate_per_s=-1.0)


class TestBuildProcess:
    def test_all_synthetic_patterns_build(self):
        for pattern in TRAFFIC_PATTERNS:
            if pattern == "trace":
                continue
            process = build_process(pattern, 30.0, horizon_s=9.0)
            assert isinstance(process, ArrivalProcess)
            assert process.sample(10, seed=0).shape == (10,)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            build_process("bursty", 30.0)

    def test_trace_requires_a_path(self):
        with pytest.raises(ValueError, match="trace path"):
            build_process("trace", 30.0)

    def test_diurnal_period_defaults_to_a_third_of_the_horizon(self):
        process = build_process("diurnal", 30.0, horizon_s=9.0)
        assert process.period_s == pytest.approx(3.0)


# -- spec assignment and the id/arrival ordering contract ---------------------


class TestAssignArrivals:
    def test_result_is_sorted_by_arrival(self):
        specs = random_mixed_workload(12, seed=3)
        process = FlashCrowd(
            PoissonProcess(20.0),
            (Burst(start_s=0.05, duration_s=0.1, rate_per_s=300.0),),
        )
        assigned = assign_arrivals(specs, process, seed=8)
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
