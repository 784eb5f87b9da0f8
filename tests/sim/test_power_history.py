"""The sliding-window power history (the paper's 10 ms signal).

Threads are addressed by their engine slot (an integer).  Beyond the
behavioural unit tests, the window average is pinned bit for bit against
the plain per-thread definition: a deque per thread, evicted from the
front on every append, averaged as ``sum(p*dt) / sum(dt)`` over
``np.float64`` samples, summed left to right.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.engine import _PowerHistory


@pytest.fixture()
def history():
    return _PowerHistory(window_s=10e-3)


def _record(history, slot, now_s, power_w, dt_s):
    """One slot's sample as a one-thread interval."""
    history.record(np.array([slot]), now_s, np.array([power_w]), dt_s)


def _average(history, slot):
    """The slot's window average, or None without history."""
    window = history.window()
    return float(window.average_w[slot]) if window.has_history[slot] else None


def _recent(history, slot):
    """The slot's latest sample, or None without history."""
    window = history.window()
    return float(window.recent_w[slot]) if window.has_history[slot] else None


class TestWindowAverage:
    def test_single_sample(self, history):
        _record(history, 0, 0.0, 5.0, 1e-3)
        assert _average(history, 0) == pytest.approx(5.0)

    def test_time_weighted(self, history):
        _record(history, 0, 0.0, 8.0, 1e-3)
        _record(history, 0, 1e-3, 2.0, 3e-3)
        # (8*1 + 2*3) / 4
        assert _average(history, 0) == pytest.approx(3.5)

    def test_window_eviction(self, history):
        _record(history, 0, 0.0, 100.0, 1e-3)
        for k in range(1, 25):
            _record(history, 0, k * 1e-3, 2.0, 1e-3)
        # the 100 W sample is > 10 ms old: evicted
        assert _average(history, 0) == pytest.approx(2.0)

    def test_recent_returns_last_sample(self, history):
        _record(history, 0, 0.0, 8.0, 1e-3)
        _record(history, 0, 1e-3, 2.0, 1e-3)
        assert _recent(history, 0) == pytest.approx(2.0)

    def test_unknown_slot_has_no_history(self, history):
        _record(history, 0, 0.0, 5.0, 1e-3)
        assert _average(history, 5) is None
        assert _recent(history, 5) is None

    def test_forget(self, history):
        _record(history, 0, 0.0, 5.0, 1e-3)
        history.forget(0)
        assert _average(history, 0) is None

    def test_threads_isolated(self, history):
        _record(history, 0, 0.0, 8.0, 1e-3)
        _record(history, 1, 0.0, 2.0, 1e-3)
        assert _average(history, 0) == pytest.approx(8.0)
        assert _average(history, 1) == pytest.approx(2.0)


class _Reference:
    """The per-thread deque definition the slot matrix must reproduce."""

    def __init__(self, window_s):
        self.window_s = window_s
        self.samples = {}

    def record(self, slot, now_s, power_w, dt_s):
        queue = self.samples.setdefault(slot, deque())
        queue.append((now_s, np.float64(power_w), dt_s))
        cutoff = now_s - self.window_s
        while queue and queue[0][0] < cutoff:
            queue.popleft()

    def average(self, slot):
        queue = self.samples[slot]
        return sum(p * dt for _, p, dt in queue) / sum(dt for _, _, dt in queue)

    def forget(self, slot):
        self.samples.pop(slot, None)


class TestSummationOrder:
    def test_sequential_not_compensated(self, history):
        # 1e16 + 1 rounds back to 1e16 (ties to even), twice: a compensated
        # sum would keep the 2 and average to (1e16 + 2) / 3
        for k, power in enumerate((1e16, 1.0, 1.0)):
            _record(history, 0, k * 1.0e-3, power, 1.0)
        assert _average(history, 0) == 1e16 / 3
        assert _average(history, 0) != (1e16 + 2) / 3

    def test_interval_batch_equals_scalar_records(self):
        batched = _PowerHistory(window_s=10e-3)
        scalar = _PowerHistory(window_s=10e-3)
        powers = np.array([3.25, 17.5, 0.3])
        for k in range(30):
            batched.record(np.array([2, 0, 5]), k * 0.5e-3, powers * (k + 1), 0.5e-3)
            for slot, power in zip((2, 0, 5), powers * (k + 1)):
                _record(scalar, slot, k * 0.5e-3, power, 0.5e-3)
        for slot in (0, 2, 5):
            assert _average(batched, slot) == _average(scalar, slot)

    def test_slot_that_stops_recording_matches_deques(self):
        """Slot 0 records, pauses while slot 1 goes on (its samples pin
        the columns they sit in, so the ring widens), then resumes: every
        read matches the per-slot deques bit for bit."""
        history = _PowerHistory(window_s=10e-3, slots=2, width=2)
        reference = _Reference(window_s=10e-3)
        dt = 0.75e-3
        for k in range(60):
            now = k * dt
            slots = [0, 1] if k < 6 or k >= 40 else [1]
            powers = [1.0 / (3 + k + slot) * 10 ** (slot + k % 5) for slot in slots]
            history.record(np.array(slots), now, np.array(powers), dt)
            for slot, power in zip(slots, powers):
                reference.record(slot, now, power, dt)
            for slot in (0, 1):
                assert _average(history, slot) == reference.average(slot)
                assert _recent(history, slot) == reference.samples[slot][-1][1]

    def test_out_of_order_record_rejected(self, history):
        _record(history, 0, 1e-3, 5.0, 1e-3)
        with pytest.raises(ValueError):
            _record(history, 1, 0.5e-3, 5.0, 1e-3)


#: one interval: its length, then per thread None (waiting), "forget" or
#: a power sample; powers span many magnitudes so that any change of the
#: summation order shows in the last bits
_INTERVAL = st.tuples(
    st.sampled_from([0.125e-3, 0.25e-3, 0.5e-3, 1e-3, 3e-3, 1e-9]),
    st.lists(
        st.one_of(
            st.none(),
            st.just("forget"),
            st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
        ),
        min_size=4,
        max_size=4,
    ),
)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(intervals=st.lists(_INTERVAL, min_size=1, max_size=120))
def test_window_average_bit_exact(intervals):
    history = _PowerHistory(window_s=10e-3, slots=2, width=2)
    history.reserve(4)
    reference = _Reference(window_s=10e-3)
    now = 0.0
    for dt, actions in intervals:
        slots, powers = [], []
        for slot, action in enumerate(actions):
            if action == "forget":
                history.forget(slot)
                reference.forget(slot)
            elif action is not None:
                slots.append(slot)
                powers.append(action)
                reference.record(slot, now, action, dt)
        history.record(np.array(slots, dtype=int), now, np.array(powers), dt)
        for slot in range(len(actions)):
            if slot in reference.samples:
                assert _average(history, slot) == reference.average(slot)
                assert _recent(history, slot) == reference.samples[slot][-1][1]
            else:
                assert _average(history, slot) is None
        now += dt
