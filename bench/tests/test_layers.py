"""Nested self-time accounting of the layer timers."""

import asyncio
import itertools

from bench.layers import LayerTimer, layer_metrics, new_timer


class Ticks:
    """A clock that advances one tick per read, so sums are exact."""

    def __init__(self):
        self._ticks = itertools.count()

    def __call__(self) -> int:
        return next(self._ticks)


def _nested_workload(timer: LayerTimer):
    leaf = timer.wrap(lambda: None, "leaf")
    mid = timer.wrap(lambda: (leaf(), leaf()), "mid")
    top = timer.wrap(lambda: (mid(), leaf(), mid()), "top")
    top()
    top()
    leaf()  # a top-level frame of another layer


def test_self_times_sum_exactly_to_top_level_time():
    timer = LayerTimer(clock=Ticks())
    _nested_workload(timer)
    assert sum(timer.self_time.values()) == sum(timer.top_level.values())
    assert set(timer.top_level) == {"top", "leaf"}


def test_self_time_excludes_exactly_the_nested_frames():
    timer = LayerTimer(clock=Ticks())
    _nested_workload(timer)
    for layer in ("top", "mid", "leaf"):
        assert timer.self_time[layer] <= timer.inclusive[layer]
    # a leaf frame reads the clock twice: one tick of duration, all self
    assert timer.self_time["leaf"] == timer.inclusive["leaf"] == timer.calls["leaf"]
    nested_in_mid = 2 * timer.calls["mid"] * 1  # two leaf calls per mid
    assert timer.self_time["mid"] == timer.inclusive["mid"] - nested_in_mid
    assert timer.calls == {"top": 2, "mid": 4, "leaf": 11}


def test_frames_close_when_the_wrapped_call_raises():
    timer = LayerTimer(clock=Ticks())

    def boom():
        raise ValueError("boom")

    wrapped = timer.wrap(boom, "boom")
    outer = timer.wrap(lambda: wrapped(), "outer")
    try:
        outer()
    except ValueError:
        pass
    assert timer.calls == {"boom": 1, "outer": 1}
    assert sum(timer.self_time.values()) == sum(timer.top_level.values())


class _Target:
    def work(self, n):
        return n + 1

    async def wait(self):
        await asyncio.sleep(0)
        return "done"


def test_install_wraps_and_uninstall_restores():
    original = _Target.__dict__["work"]
    timer = new_timer()
    timer.install(
        [(__name__, "_Target", "work", "work")],
        [(__name__, "_Target", "wait", "wait")],
    )
    try:
        assert _Target().work(1) == 2
        assert asyncio.run(_Target().wait()) == "done"
    finally:
        timer.uninstall()
    assert _Target.__dict__["work"] is original
    assert timer.calls["work"] == 1
    assert timer.counts["wait.calls"] == 1 and timer.waits["wait"] >= 0.0


def test_layer_metrics_reports_shares_and_per_unit_counts():
    timer = LayerTimer(clock=Ticks())
    decide = timer.wrap(lambda: None, "sched.decide.hp")
    for _ in range(6):
        decide()
    metrics = layer_metrics(timer, busy_s=12.0, units=2)
    assert metrics["sched.decide.calls"] == 3.0
    assert metrics["sched.decide.self_share"] == 6 / 12.0
    assert metrics["sched.decide.hp_share"] == 1.0
    assert metrics["trace.coverage"] == 6 / 12.0
