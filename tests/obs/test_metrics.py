"""Metrics registry: instruments, snapshots, export, run determinism."""

import csv
import io
import json

import pytest

from repro import config
from repro.obs import MetricsRegistry
from repro.sched import HotPotatoScheduler, PCMigScheduler
from repro.sim import IntervalSimulator
from repro.workload import PARSEC, Task


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("engine.migrations")
        counter.inc()
        counter.inc(3)
        assert registry.counter("engine.migrations").value == 4

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("tau_s").set(0.5e-3)
        registry.gauge("tau_s").set(0.25e-3)
        assert registry.gauge("tau_s").value == 0.25e-3

    def test_histogram_summary_stats(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (1.0, 2.0, 6.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 9.0
        assert histogram.min == 1.0
        assert histogram.max == 6.0
        assert histogram.mean == 3.0

    def test_name_collision_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1
        assert "a" in registry


class TestSnapshot:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("b.count").inc(2)
        registry.gauge("a.gauge").set(1.5)
        histogram = registry.histogram("c.hist")
        histogram.observe(2.0)
        histogram.observe(4.0)
        registry.histogram("d.wall_s", timing=True).observe(0.1)
        return registry

    def test_snapshot_is_flat_and_sorted(self):
        snapshot = self._populated().snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["a.gauge"] == 1.5
        assert snapshot["b.count"] == 2.0
        assert snapshot["c.hist.count"] == 2.0
        assert snapshot["c.hist.mean"] == 3.0

    def test_exclude_timing_drops_wall_clock_instruments(self):
        snapshot = self._populated().snapshot(exclude_timing=True)
        assert not any(key.startswith("d.wall_s") for key in snapshot)
        assert "c.hist.count" in snapshot

    def test_empty_histogram_snapshot_is_finite(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        snapshot = registry.snapshot()
        assert snapshot["h.min"] == 0.0
        assert snapshot["h.max"] == 0.0
        assert snapshot["h.mean"] == 0.0

    def test_json_export_parses_back(self):
        registry = self._populated()
        assert json.loads(registry.to_json()) == registry.snapshot()

    def test_csv_export_parses_back(self):
        registry = self._populated()
        rows = list(csv.reader(io.StringIO(registry.to_csv())))
        assert rows[0] == ["metric", "value"]
        parsed = {name: float(value) for name, value in rows[1:]}
        assert parsed == registry.snapshot()

    def test_save_by_suffix(self, tmp_path):
        registry = self._populated()
        registry.save(tmp_path / "m.json")
        registry.save(tmp_path / "m.csv")
        assert json.loads((tmp_path / "m.json").read_text()) == registry.snapshot()
        assert (tmp_path / "m.csv").read_text().startswith("metric,value")


class TestRunDeterminism:
    def _run_snapshot(self):
        cfg = config.motivational().with_observability(metrics=True)
        task = Task(0, PARSEC["blackscholes"], n_threads=2, seed=1)
        sim = IntervalSimulator(cfg, HotPotatoScheduler(), [task])
        result = sim.run(max_time_s=0.1)  # long enough for the task to finish
        return sim.observer.metrics.snapshot(exclude_timing=True), result

    def test_two_identical_runs_snapshot_identically(self):
        snapshot_a, result_a = self._run_snapshot()
        snapshot_b, result_b = self._run_snapshot()
        assert snapshot_a == snapshot_b
        assert result_a.sim_time_s == result_b.sim_time_s

    def test_result_snapshot_carries_engine_and_scheduler_metrics(self):
        _, result = self._run_snapshot()
        snapshot = result.metrics_snapshot
        assert snapshot["engine.intervals"] > 0
        assert snapshot["engine.tasks.arrived"] == 1.0
        assert snapshot["engine.tasks.completed"] == 1.0
        assert snapshot["engine.migrations"] == result.migration_count
        # per-ring migration counters sum to the total
        per_ring = sum(
            value
            for key, value in snapshot.items()
            if key.startswith("engine.migrations.to_ring.")
        )
        assert per_ring == result.migration_count
        assert "sched.rotation_epochs" in snapshot
        # every admission screens each ring with a free slot
        assert snapshot["sched.screen.pairs"] > 0
        assert 0 <= snapshot["sched.screen.skipped"] <= snapshot["sched.screen.pairs"]
        # the exit's rebalance tests the incumbent's peak: the ring tables
        # settle the tests far from their thresholds
        assert snapshot["sched.screen.incumbent"] > 0
        assert snapshot["sched.screen.incumbent_exact"] >= 0
        # coolest-slot choices: the tables settle some, and slots they
        # cannot separate (the tied slots of an empty rotating ring) fall
        # back to Algorithm 1
        assert snapshot["sched.screen.slot"] > 0
        assert snapshot["sched.screen.slot_exact"] > 0
        assert "thermal.exp_cache.hits" in snapshot
        # decision latency histogram observes every decide() call
        assert (
            snapshot["scheduler.decision_latency_s.count"]
            == result.metrics_snapshot["engine.intervals"]
        )
        # decisions the memo served from the last full one
        decides = snapshot["scheduler.decision_latency_s.count"]
        assert 0 < snapshot["sched.decide_reused"] < decides

    def test_pcmig_snapshot_carries_predictor_counters(self):
        cfg = config.motivational().with_observability(metrics=True)
        task = Task(0, PARSEC["blackscholes"], n_threads=2, seed=1)
        result = IntervalSimulator(cfg, PCMigScheduler(), [task]).run(max_time_s=0.1)
        snapshot = result.metrics_snapshot
        # every decide() with a free core predicts: the certified screen
        # settles some predictions, the exact step the rest
        screened = snapshot["sched.predict_screened"]
        exact = snapshot["sched.predict_exact"]
        assert screened > 0 and exact >= 0
        assert screened + exact == snapshot["scheduler.decision_latency_s.count"]

    def test_thermal_cache_hit_rate_is_high(self):
        # the eigenbasis-resident hot loop consults the decay-vector cache
        # (the dense exp_cache is only a validation/reference path now)
        _, result = self._run_snapshot()
        snapshot = result.metrics_snapshot
        hits = snapshot["thermal.decay_cache.hits"]
        misses = snapshot["thermal.decay_cache.misses"]
        assert hits + misses > 0
        # the interval loop reuses a handful of step sizes
        assert hits / (hits + misses) > 0.5

    def test_disabled_metrics_leave_result_snapshot_empty(self):
        cfg = config.motivational()
        task = Task(0, PARSEC["blackscholes"], n_threads=2, seed=1)
        sim = IntervalSimulator(cfg, HotPotatoScheduler(), [task])
        result = sim.run(max_time_s=0.02)
        assert sim.observer is None
        assert result.metrics_snapshot == {}


class TestHistogramStddev:
    def test_known_population_stddev(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            histogram.observe(value)
        assert histogram.stddev == pytest.approx(2.0)  # textbook population

    def test_empty_and_single_sample_are_zero(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.stddev == 0.0
        histogram.observe(3.0)
        assert histogram.stddev == 0.0

    def test_stddev_in_snapshot(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        histogram.observe(1.0)
        histogram.observe(3.0)
        snapshot = registry.snapshot()
        assert snapshot["lat.stddev"] == pytest.approx(1.0)
        assert list(snapshot) == sorted(snapshot)

    def test_catastrophic_cancellation_clamped(self):
        histogram = MetricsRegistry().histogram("h")
        for _ in range(3):
            histogram.observe(1e8 + 0.1)
        assert histogram.stddev >= 0.0


class TestSaveSuffixValidation:
    def test_unknown_suffix_rejected(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        for bad in ("m.txt", "m.yaml", "m"):
            with pytest.raises(ValueError, match="suffix"):
                registry.save(tmp_path / bad)
        assert list(tmp_path.iterdir()) == []  # nothing was written


class TestHistogramQuantiles:
    def test_constant_stream_is_exact(self):
        histogram = MetricsRegistry().histogram("lat")
        for _ in range(100):
            histogram.observe(0.003)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.003)

    def test_extremes_are_exact(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in (0.001, 0.004, 0.042):
            histogram.observe(value)
        assert histogram.quantile(0.0) == pytest.approx(0.001)
        assert histogram.quantile(1.0) == pytest.approx(0.042)

    def test_estimate_within_bucket_of_truth(self):
        histogram = MetricsRegistry().histogram("lat")
        values = [0.0001 * (i + 1) for i in range(1000)]  # 0.1ms .. 100ms
        for value in values:
            histogram.observe(value)
        for q in (0.5, 0.9, 0.99):
            true = values[int(q * len(values)) - 1]
            estimate = histogram.quantile(q)
            # 1-2-5 buckets: estimate within a factor 2.5 of the truth
            assert true / 2.5 <= estimate <= true * 2.5

    def test_p99_never_exceeds_max(self):
        histogram = MetricsRegistry().histogram("lat")
        for _ in range(99):
            histogram.observe(0.001)
        histogram.observe(0.0015)
        assert histogram.quantile(0.99) <= histogram.max

    def test_empty_histogram_returns_zero(self):
        assert MetricsRegistry().histogram("lat").quantile(0.5) == 0.0

    def test_out_of_range_q_rejected(self):
        histogram = MetricsRegistry().histogram("lat")
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                histogram.quantile(bad)

    def test_overflow_bucket_uses_streaming_max(self):
        histogram = MetricsRegistry().histogram("lat")
        histogram.observe(120.0)  # beyond the last bound (50 s)
        assert histogram.quantile(0.5) == pytest.approx(120.0)

    def test_bucket_counts_are_cumulative_compatible(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in (0.0000005, 0.003, 0.003, 70.0):
            histogram.observe(value)
        assert sum(histogram.bucket_counts) == histogram.count

    def test_registry_histograms_view(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("b")
        registry.histogram("a")
        assert list(registry.histograms()) == ["a", "b"]
