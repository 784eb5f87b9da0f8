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


class TestWindowAverage:
    def test_single_sample(self, history):
        _record(history, 0, 0.0, 5.0, 1e-3)
        assert history.average(0) == pytest.approx(5.0)

    def test_time_weighted(self, history):
        _record(history, 0, 0.0, 8.0, 1e-3)
        _record(history, 0, 1e-3, 2.0, 3e-3)
        # (8*1 + 2*3) / 4
        assert history.average(0) == pytest.approx(3.5)

    def test_window_eviction(self, history):
        _record(history, 0, 0.0, 100.0, 1e-3)
        for k in range(1, 25):
            _record(history, 0, k * 1e-3, 2.0, 1e-3)
        # the 100 W sample is > 10 ms old: evicted
        assert history.average(0) == pytest.approx(2.0)

    def test_recent_returns_last_sample(self, history):
        _record(history, 0, 0.0, 8.0, 1e-3)
        _record(history, 0, 1e-3, 2.0, 1e-3)
        assert history.recent(0) == pytest.approx(2.0)

    def test_unknown_thread_raises(self, history):
        with pytest.raises(KeyError):
            history.average(5)
        with pytest.raises(KeyError):
            history.recent(5)

    def test_forget(self, history):
        _record(history, 0, 0.0, 5.0, 1e-3)
        history.forget(0)
        with pytest.raises(KeyError):
            history.average(0)

    def test_threads_isolated(self, history):
        _record(history, 0, 0.0, 8.0, 1e-3)
        _record(history, 1, 0.0, 2.0, 1e-3)
        assert history.average(0) == pytest.approx(8.0)
        assert history.average(1) == pytest.approx(2.0)


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
        assert history.average(0) == 1e16 / 3
        assert history.average(0) != (1e16 + 2) / 3

    def test_interval_batch_equals_scalar_records(self):
        batched = _PowerHistory(window_s=10e-3)
        scalar = _PowerHistory(window_s=10e-3)
        powers = np.array([3.25, 17.5, 0.3])
        for k in range(30):
            batched.record(np.array([2, 0, 5]), k * 0.5e-3, powers * (k + 1), 0.5e-3)
            for slot, power in zip((2, 0, 5), powers * (k + 1)):
                _record(scalar, slot, k * 0.5e-3, power, 0.5e-3)
        for slot in (0, 2, 5):
            assert batched.average(slot) == scalar.average(slot)

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
                assert history.average(slot) == reference.average(slot)
                assert history.recent(slot) == reference.samples[slot][-1][1]
            else:
                with pytest.raises(KeyError):
                    history.average(slot)
        now += dt
