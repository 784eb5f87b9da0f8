"""Batched Algorithm-1 candidate evaluation (``peak_batch``) and its memo.

The scheduler's greedy scans now evaluate all (assignment, tau) candidates
through one stacked einsum; these tests pin the batched path to the scalar
formula, exercise the fingerprint memo, and bound the caches.
"""

import numpy as np
import pytest

from repro.core import PeakTemperatureCalculator
from repro.core.hotpotato import DEFAULT_TAU_LADDER_S


def _candidates(rng, n_cores, count=12):
    """A mixed candidate set: several deltas, several taus, one static."""
    seqs, taus = [], []
    for i in range(count):
        delta = (2, 3, 4)[i % 3]
        seq = rng.uniform(0.0, 8.0, size=(delta, n_cores))
        tau = (0.5e-3, 1e-3)[i % 2]
        seqs.append(seq)
        taus.append(tau)
    # a non-rotating candidate (tau = None evaluates the steady peak)
    seqs.append(rng.uniform(0.0, 8.0, size=(1, n_cores)))
    taus.append(None)
    return seqs, taus


class TestBatchedEquivalence:
    def test_matches_scalar_formula_for_every_candidate(
        self, dynamics16, cfg16, rng
    ):
        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        seqs, taus = _candidates(rng, dynamics16.model.n_cores)
        batched = calc.peak_batch(seqs, taus)
        for value, seq, tau in zip(batched, seqs, taus):
            if tau is None:
                scalar = calc.steady_peak(seq[0])
            else:
                # the original scalar formula, independent of the memo
                scalar = float(np.max(calc.boundary_temperatures(seq, tau)))
            assert value == pytest.approx(scalar, abs=1e-9)

    def test_scalar_peak_delegates_to_batch(self, dynamics16, cfg16, rng):
        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        seq = rng.uniform(0.0, 8.0, size=(3, dynamics16.model.n_cores))
        assert calc.peak(seq, 1e-3) == calc.peak_batch([seq], [1e-3])[0]

    def test_order_preserved(self, dynamics16, cfg16, rng):
        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        seqs, taus = _candidates(rng, dynamics16.model.n_cores)
        batched = calc.peak_batch(seqs, taus)
        singles = [calc.peak_batch([s], [t])[0] for s, t in zip(seqs, taus)]
        np.testing.assert_array_equal(batched, singles)


class TestMemo:
    def test_repeat_candidates_hit_the_memo(self, dynamics16, cfg16, rng):
        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        seqs, taus = _candidates(rng, dynamics16.model.n_cores)
        first = calc.peak_batch(seqs, taus)
        misses_after_first = calc.cache_stats()["peak_cache.misses"]
        second = calc.peak_batch(seqs, taus)
        stats = calc.cache_stats()
        np.testing.assert_array_equal(first, second)
        assert stats["peak_cache.misses"] == misses_after_first
        assert stats["peak_cache.hits"] >= len(seqs)

    def test_different_power_same_shape_not_conflated(
        self, dynamics16, cfg16, rng
    ):
        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        n = dynamics16.model.n_cores
        cool = np.full((2, n), 1.0)
        hot = np.full((2, n), 6.0)
        peaks = calc.peak_batch([cool, hot], [1e-3, 1e-3])
        assert peaks[1] > peaks[0] + 1.0

    def test_batch_counters_advance(self, dynamics16, cfg16, rng):
        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        seqs, taus = _candidates(rng, dynamics16.model.n_cores, count=6)
        calc.peak_batch(seqs, taus)
        stats = calc.cache_stats()
        assert stats["batch.calls"] == 1
        assert stats["batch.candidates"] == len(seqs)


class TestValidation:
    def test_length_mismatch_rejected(self, dynamics16, cfg16):
        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        seq = np.ones((2, dynamics16.model.n_cores))
        with pytest.raises(ValueError, match="one tau"):
            calc.peak_batch([seq], [1e-3, 2e-3])

    def test_nonpositive_tau_rejected(self, dynamics16, cfg16):
        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        seq = np.ones((2, dynamics16.model.n_cores))
        with pytest.raises(ValueError, match="positive"):
            calc.peak_batch([seq], [0.0])

    def test_cache_stats_keys(self, dynamics16, cfg16):
        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        stats = calc.cache_stats()
        for prefix in ("alpha_cache", "beta_cache", "peak_cache"):
            for suffix in ("hits", "misses", "evictions", "size"):
                assert f"{prefix}.{suffix}" in stats


class TestCacheBounds:
    def test_peak_memo_evicts_beyond_capacity(self, dynamics16, cfg16, rng):
        from repro.core import peak_temperature as mod

        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        n = dynamics16.model.n_cores
        extra = 5
        for i in range(mod._PEAK_CACHE_SIZE + extra):
            seq = np.full((1, n), 1.0 + i * 1e-6)
            calc.peak_batch([seq], [1e-3])
        stats = calc.cache_stats()
        assert stats["peak_cache.size"] == mod._PEAK_CACHE_SIZE
        assert stats["peak_cache.evictions"] == extra

    def test_alpha_cache_bounded(self, dynamics16, cfg16):
        from repro.core import peak_temperature as mod

        calc = PeakTemperatureCalculator(dynamics16, cfg16.thermal.ambient_c)
        n = dynamics16.model.n_cores
        seq = np.ones((2, n))
        for i in range(mod._ALPHA_CACHE_SIZE + 3):
            calc.boundary_temperatures(seq, 1e-4 * (i + 1))
        stats = calc.cache_stats()
        assert stats["alpha_cache.size"] <= mod._ALPHA_CACHE_SIZE
        assert stats["alpha_cache.evictions"] >= 3


class TestSharedMemoConfigKeys:
    """Regression: memo keys must carry the thermal configuration.

    The cross-tenant serve cache shares one peak memo store between
    calculators of tenants with the same floorplan.  Before the fix the
    fingerprint was only (tau, shape, digest), so two tenants differing
    only in ``T_DTM``/hysteresis/ambient would silently trade answers.
    """

    def test_fingerprint_includes_config_key(self, dynamics16, cfg16, rng):
        thermal = cfg16.thermal
        calc = PeakTemperatureCalculator(
            dynamics16,
            thermal.ambient_c,
            config_key=(
                thermal.ambient_c,
                thermal.dtm_threshold_c,
                thermal.dtm_hysteresis_c,
            ),
        )
        seq = rng.uniform(0.0, 8.0, size=(2, dynamics16.model.n_cores))
        key = calc._fingerprint(seq, 1e-3)
        assert key[0] == (
            thermal.ambient_c,
            thermal.dtm_threshold_c,
            thermal.dtm_hysteresis_c,
        )

    def test_shared_store_no_stale_hit_across_ambients(
        self, dynamics16, rng
    ):
        from repro._lru import LruCache

        shared = LruCache(256)
        cool = PeakTemperatureCalculator(
            dynamics16, 45.0, config_key=(45.0, 70.0, 2.0), peak_cache=shared
        )
        warm = PeakTemperatureCalculator(
            dynamics16, 55.0, config_key=(55.0, 80.0, 2.0), peak_cache=shared
        )
        seq = rng.uniform(0.0, 8.0, size=(2, dynamics16.model.n_cores))
        peak_cool = float(cool.peak_batch([seq], [1e-3])[0])
        peak_warm = float(warm.peak_batch([seq], [1e-3])[0])
        # a stale hit would have returned the 45C-ambient answer verbatim
        assert peak_warm == pytest.approx(peak_cool + 10.0, abs=1e-6)
        # both answers are cached side by side in the one shared store
        assert shared.peek(cool._fingerprint(seq, 1e-3)) == peak_cool
        assert shared.peek(warm._fingerprint(seq, 1e-3)) == peak_warm

    def test_same_config_key_shares_hits_across_calculators(
        self, dynamics16, cfg16, rng
    ):
        from repro._lru import LruCache

        shared = LruCache(256)
        key = (45.0, 70.0, 2.0)
        a = PeakTemperatureCalculator(
            dynamics16, 45.0, config_key=key, peak_cache=shared
        )
        b = PeakTemperatureCalculator(
            dynamics16, 45.0, config_key=key, peak_cache=shared
        )
        seq = rng.uniform(0.0, 8.0, size=(2, dynamics16.model.n_cores))
        first = a.peak_batch([seq], [1e-3])
        hits_before = shared.hits
        second = b.peak_batch([seq], [1e-3])
        np.testing.assert_array_equal(first, second)
        assert shared.hits == hits_before + 1

    def test_simcontext_passes_thermal_config_key(self):
        from repro import config
        from repro.sim.context import SimContext

        ctx = SimContext(config.small_test())
        thermal = ctx.config.thermal
        assert ctx.calculator.config_key == (
            thermal.ambient_c,
            thermal.dtm_threshold_c,
            thermal.dtm_hysteresis_c,
        )


#: HotPotato's tau ladder as ``_select_tau`` scores it: rotation off first
_LADDER = [None, *DEFAULT_TAU_LADDER_S]


class TestLayoutAndDedupe:
    """The run-time phase's data layout and per-call validation work.

    Alpha is cached mode-major and C-contiguous so the stacked matmul
    reaches BLAS, and ``peak_batch`` validates and digests each distinct
    input array once however many candidates share it.
    """

    def test_cached_alpha_is_mode_major_and_contiguous(self, dynamics64, cfg64, rng):
        calc = PeakTemperatureCalculator(dynamics64, cfg64.thermal.ambient_c)
        n = dynamics64.model.n_cores
        n_modes = dynamics64.eigenvalues.shape[0]
        for delta in (1, 4, 8, 24):
            seq = rng.uniform(0.0, 8.0, size=(delta, n))
            calc.peak_batch([seq, seq], [1e-3, 0.5e-3])
            calc.boundary_temperatures(seq, 2e-3)
        keys = list(calc._alpha_cache)
        assert len(keys) == 12
        for tau, delta in keys:
            alpha = calc._alpha_cache.peek((tau, delta))
            assert alpha.shape == (n_modes, delta, delta)
            assert alpha.flags.c_contiguous

    def test_ladder_validates_one_array_once(self, dynamics64, cfg64, rng, monkeypatch):
        from repro.core import peak_temperature as mod

        calls = []
        original = mod._validate_sequence

        def counting(dynamics, seq):
            calls.append(id(seq))
            return original(dynamics, seq)

        monkeypatch.setattr(mod, "_validate_sequence", counting)
        calc = PeakTemperatureCalculator(dynamics64, cfg64.thermal.ambient_c)
        seq = rng.uniform(0.0, 8.0, size=(8, dynamics64.model.n_cores))
        peaks = calc.peak_batch([seq] * len(_LADDER), _LADDER)
        assert len(calls) == 1
        # the dedupe shares the check, not the answers: every rung is its own
        for value, tau in zip(peaks, _LADDER):
            fresh = PeakTemperatureCalculator(dynamics64, cfg64.thermal.ambient_c)
            assert value == fresh.peak_batch([seq.copy()], [tau])[0]

    @pytest.mark.parametrize(
        "bad, match",
        [
            (lambda n: -np.ones((8, n)), "non-negative"),
            (lambda n: np.ones((8, n + 1)), "shape"),
        ],
        ids=["negative", "mis-shaped"],
    )
    def test_repeated_bad_array_still_rejected(self, dynamics64, cfg64, bad, match):
        calc = PeakTemperatureCalculator(dynamics64, cfg64.thermal.ambient_c)
        seq = bad(dynamics64.model.n_cores)
        with pytest.raises(ValueError, match=match):
            calc.peak_batch([seq] * len(_LADDER), _LADDER)

    def test_scalar_peak_and_ladder_share_a_memo_entry(self, dynamics64, cfg64, rng):
        calc = PeakTemperatureCalculator(dynamics64, cfg64.thermal.ambient_c)
        seq = rng.uniform(0.0, 8.0, size=(8, dynamics64.model.n_cores))
        scalar = calc.peak(seq, 1e-3)
        hits = calc.cache_stats()["peak_cache.hits"]
        peaks = calc.peak_batch([seq] * len(_LADDER), _LADDER)
        assert calc.cache_stats()["peak_cache.hits"] == hits + 1
        assert peaks[_LADDER.index(1e-3)] == scalar

    @pytest.mark.parametrize("delta", [1, 4, 8, 12, 24])
    def test_candidate_bits_do_not_depend_on_group_width(
        self, dynamics64, cfg64, rng, delta
    ):
        """The memo keeps a candidate's first value, so alone and in any
        stack the candidate must get the same bits."""
        ambient = cfg64.thermal.ambient_c
        n = dynamics64.model.n_cores
        for width in range(2, 14):
            seqs = [rng.uniform(0.3, 9.0, size=(delta, n)) for _ in range(width)]
            stacked = PeakTemperatureCalculator(dynamics64, ambient)
            peaks = stacked.peak_batch(seqs, [0.5e-3] * width)
            for seq, value in zip(seqs, peaks):
                alone = PeakTemperatureCalculator(dynamics64, ambient)
                assert alone.peak_batch([seq], [0.5e-3])[0] == value

    @pytest.mark.parametrize("delta", [1, 4, 8, 24])
    def test_matches_dense_fixed_point_on_table1(self, dynamics64, cfg64, rng, delta):
        from repro.core.peak_temperature import rotation_fixed_point

        ambient = cfg64.thermal.ambient_c
        calc = PeakTemperatureCalculator(dynamics64, ambient)
        seq = rng.uniform(0.3, 8.0, size=(delta, dynamics64.model.n_cores))
        taus = [tau for tau in _LADDER if tau is not None]
        peaks = calc.peak_batch([seq] * len(taus), taus)
        for value, tau in zip(peaks, taus):
            dense = rotation_fixed_point(dynamics64, seq, tau, ambient)
            expected = float(np.max(dynamics64.model.core_temperatures(dense)))
            assert abs(value - expected) <= 1e-9
