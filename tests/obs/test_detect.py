"""Violation detectors: the miniature trace and targeted corner cases."""

import pytest

from repro.obs import (
    BoundDetector,
    DtmThrashDetector,
    PowerMapDetector,
    RotationStallDetector,
    ThresholdDetector,
    TraceRecorder,
    default_detectors,
    event_callback,
    run_detectors,
)

from .conftest import IDLE_W


class TestThresholdDetector:
    def test_exactly_one_violation_at_the_hot_interval(self, mini_trace):
        violations = run_detectors(mini_trace, [ThresholdDetector(70.0)])
        assert len(violations) == 1
        violation = violations[0]
        assert violation.detector == "thermal-threshold"
        assert violation.time_s == pytest.approx(2e-3)
        assert violation.core == 0
        assert violation.value == 72.0
        assert violation.limit == 70.0
        assert violation.severity == "critical"

    def test_tolerance_absorbs_the_excursion(self, mini_trace):
        violations = run_detectors(
            mini_trace, [ThresholdDetector(70.0, tolerance_c=2.5)]
        )
        assert violations == []

    def test_sustained_excursion_is_one_episode(self):
        trace = TraceRecorder()
        for i, temp in enumerate([60.0, 75.0, 76.0, 74.0, 60.0, 75.0]):
            trace.record_interval(
                i * 1e-3, 1e-3, {}, (IDLE_W,), (temp,), (4e9,)
            )
        violations = run_detectors(trace, [ThresholdDetector(70.0)])
        # two onsets (intervals 1 and 5), not four hot intervals
        assert [v.time_s for v in violations] == [
            pytest.approx(1e-3),
            pytest.approx(5e-3),
        ]


class TestBoundDetector:
    def test_locates_the_single_bound_breaking_interval(self, mini_trace):
        violations = run_detectors(mini_trace, [BoundDetector(71.0)])
        assert len(violations) == 1
        assert violations[0].detector == "analytic-bound"
        assert violations[0].time_s == pytest.approx(2e-3)
        assert violations[0].core == 0

    def test_silent_when_bound_holds(self, mini_trace):
        assert run_detectors(mini_trace, [BoundDetector(75.0)]) == []


class TestDtmThrashDetector:
    def _thrashy_trace(self, transitions: int) -> TraceRecorder:
        from repro.sim.events import DtmEngaged, DtmReleased

        trace = TraceRecorder()
        for i in range(transitions):
            cls = DtmEngaged if i % 2 == 0 else DtmReleased
            trace.record_event(
                cls(time_s=i * 1e-3, core=0, temperature_c=70.0)
            )
        return trace

    def test_fires_once_per_thrash_episode(self):
        trace = self._thrashy_trace(9)
        violations = run_detectors(
            trace, [DtmThrashDetector(window_s=10e-3, max_transitions=6)]
        )
        assert len(violations) == 1
        assert violations[0].detector == "dtm-thrash"
        assert violations[0].severity == "warning"
        assert violations[0].core == 0

    def test_quiet_below_the_transition_budget(self):
        trace = self._thrashy_trace(4)
        violations = run_detectors(
            trace, [DtmThrashDetector(window_s=10e-3, max_transitions=6)]
        )
        assert violations == []

    def test_mini_trace_is_not_thrashy(self, mini_trace):
        assert run_detectors(mini_trace, [DtmThrashDetector()]) == []

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            DtmThrashDetector(window_s=0.0)


class TestRotationStallDetector:
    def test_fires_once_when_boundaries_stop(self):
        trace = TraceRecorder()
        trace.record_epoch(0.0, epoch=0, tau_s=1e-3)
        for i in range(6):  # placed intervals marching past 3 * tau
            trace.record_interval(
                i * 1e-3, 1e-3, {"t0": 0}, (2.0,), (50.0,), (4e9,)
            )
        violations = run_detectors(trace, [RotationStallDetector(3.0)])
        assert len(violations) == 1
        assert violations[0].detector == "rotation-stall"
        assert violations[0].time_s > 3e-3

    def test_quiet_while_rotating(self, mini_trace):
        assert run_detectors(mini_trace, [RotationStallDetector()]) == []

    def test_idle_intervals_do_not_stall(self):
        trace = TraceRecorder()
        trace.record_epoch(0.0, epoch=0, tau_s=1e-3)
        for i in range(6):  # nothing placed -> nothing to rotate
            trace.record_interval(i * 1e-3, 1e-3, {}, (IDLE_W,), (46.0,), (4e9,))
        assert run_detectors(trace, [RotationStallDetector()]) == []

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError, match="stall factor"):
            RotationStallDetector(stall_factor=1.0)


class TestPowerMapDetector:
    def test_consistent_trace_is_clean(self, mini_trace):
        assert run_detectors(mini_trace, [PowerMapDetector(IDLE_W)]) == []

    def test_unplaced_core_drawing_power(self):
        trace = TraceRecorder()
        trace.record_interval(
            0.0, 1e-3, {}, (IDLE_W, 1.0), (46.0, 48.0), (4e9, 4e9)
        )
        violations = run_detectors(trace, [PowerMapDetector(IDLE_W)])
        assert len(violations) == 1
        assert violations[0].core == 1
        assert "unplaced" in violations[0].message

    def test_placed_core_below_idle(self):
        trace = TraceRecorder()
        trace.record_interval(
            0.0, 1e-3, {"t0": 0}, (0.1, IDLE_W), (46.0, 46.0), (4e9, 4e9)
        )
        violations = run_detectors(trace, [PowerMapDetector(IDLE_W)])
        assert len(violations) == 1
        assert violations[0].core == 0
        assert "placed thread" in violations[0].message


class TestRegistryAndOrdering:
    def test_default_set_skips_optional_detectors(self):
        names = {d.name for d in default_detectors()}
        assert names == {
            "thermal-threshold",
            "dtm-thrash",
            "rotation-stall",
            "faults-unsafe-degradation",
        }
        names = {
            d.name for d in default_detectors(idle_power_w=0.3, bound_c=70.0)
        }
        assert "power-map" in names and "analytic-bound" in names

    def test_violations_sorted_by_time(self, mini_trace):
        detectors = default_detectors(
            dtm_threshold_c=45.0, idle_power_w=IDLE_W, bound_c=49.0
        )
        violations = run_detectors(mini_trace, detectors)
        assert violations
        times = [v.time_s for v in violations]
        assert times == sorted(times)

    def test_to_dict_omits_unset_fields(self, mini_trace):
        (violation,) = run_detectors(mini_trace, [ThresholdDetector(70.0)])
        data = violation.to_dict()
        assert data["core"] == 0 and data["limit"] == 70.0
        stall = RotationStallDetector()
        stall.emit(1.0, "no core attached")
        assert "core" not in stall.violations[0].to_dict()


class TestOnlineDetection:
    def test_event_callback_matches_offline(self, mini_trace):
        """Feeding live events through the subscription path agrees with
        replaying the recorded trace offline."""
        from repro.sim.events import DtmEngaged, DtmReleased, EventLog

        offline = run_detectors(
            mini_trace, [DtmThrashDetector(window_s=10e-3, max_transitions=1)]
        )
        online_detector = DtmThrashDetector(window_s=10e-3, max_transitions=1)
        log = EventLog()
        log.subscribe(event_callback([online_detector]))
        for record in mini_trace.events():
            cls = {"DtmEngaged": DtmEngaged, "DtmReleased": DtmReleased}.get(
                record.event
            )
            if cls is None:
                continue
            log.record(cls(time_s=record.time_s, **record.data))
        offline_dtm = [v for v in offline if v.detector == "dtm-thrash"]
        assert online_detector.violations == offline_dtm


class TestSloLatencyViolationDetector:
    def _detector(self):
        from repro.obs import SloLatencyViolationDetector, SloTarget

        # budget: at most 10% of requests may exceed 10 ms
        return SloLatencyViolationDetector(
            SloTarget(latency_s=0.010, error_budget=0.1), tenant="acme"
        )

    def test_fires_exactly_once_per_exhaustion_episode(self):
        detector = self._detector()
        # Known-answer tape: 9 fast, then one slow request exhausts the
        # 10% budget exactly at t=9 — one violation, and further slow
        # requests (still exhausted) never re-fire.
        for index in range(9):
            detector.observe_latency(float(index), 0.001)
        assert detector.violations == []
        detector.observe_latency(9.0, 0.5)
        assert len(detector.violations) == 1
        for index in range(10, 15):
            detector.observe_latency(float(index), 0.5)
        assert len(detector.violations) == 1
        violation = detector.violations[0]
        assert violation.detector == "slo-latency-violation"
        assert violation.time_s == 9.0
        assert violation.severity == "critical"
        assert "acme" in violation.message
        assert violation.value == pytest.approx(0.1)
        assert violation.limit == pytest.approx(0.1)

    def test_refires_after_budget_recovers(self):
        detector = self._detector()
        detector.observe_latency(0.0, 0.5)  # 1/1 slow: instantly exhausted
        assert len(detector.violations) == 1
        # a long run of fast requests repays the budget (1/21 < 10%)...
        for index in range(1, 21):
            detector.observe_latency(float(index), 0.001)
        assert not detector.tracker.exhausted
        # ...so the next exhaustion is a new episode
        for index in range(21, 26):
            detector.observe_latency(float(index), 0.5)
        assert len(detector.violations) == 2

    def test_fast_only_traffic_never_fires(self):
        detector = self._detector()
        for index in range(100):
            detector.observe_latency(float(index), 0.001)
        assert detector.violations == []


class TestSpanOrphanDetector:
    def _spans(self):
        from repro.obs.spans import SpanTracer

        tracer = SpanTracer(enabled=True)
        with tracer.span("request"):
            with tracer.span("inner"):
                pass
        return list(tracer)

    def test_intact_trace_has_no_orphans(self):
        from repro.obs import SpanOrphanDetector

        assert SpanOrphanDetector().check(self._spans()) == []

    def test_missing_parent_is_reported(self):
        from repro.obs import SpanOrphanDetector

        spans = self._spans()
        orphaned = [s for s in spans if s.parent_id is not None]
        violations = SpanOrphanDetector().check(orphaned)
        assert len(violations) == 1
        violation = violations[0]
        assert violation.detector == "span-orphan"
        assert violation.severity == "warning"
        assert str(orphaned[0].parent_id) in violation.message

    def test_links_are_not_parent_edges(self):
        from repro.obs import SpanOrphanDetector
        from repro.obs.spans import SpanTracer

        tracer = SpanTracer(enabled=True)
        with tracer.span("flush", links=(12345,)):
            pass
        # a dangling *link* is fine; only parent_id edges count
        assert SpanOrphanDetector().check(list(tracer)) == []
