"""The speed harness's timers still find the methods they wrap.

``python -m bench trace`` replaces each ``(module, class, attribute)`` of
``bench/layers.py`` through ``owner.__dict__[attr]``, and the untraced
passes wrap ``IntervalSimulator.run`` and ``step_thermal``
(``bench/worker.py``'s ``IntervalClock``).  A renamed or inherited-only
method would make those runs fail with a ``KeyError`` long after the
rename; these checks fail at once instead.
"""

import importlib

import pytest

from bench.layers import SERVE_LAYERS, SERVE_WAITS, SWEEP_LAYERS
from bench.worker import IntervalClock
from repro.sim.engine import IntervalSimulator

#: the engine layers are part of both lists; each patch is checked once
_PATCHES = list(dict.fromkeys(SWEEP_LAYERS + SERVE_LAYERS + SERVE_WAITS))


@pytest.mark.parametrize(
    "module_name, class_name, attr, layer",
    _PATCHES,
    ids=[f"{m}.{c or ''}.{a}" for m, c, a, _ in _PATCHES],
)
def test_layer_target_is_defined_on_its_owner(module_name, class_name, attr, layer):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    # what LayerTimer.install reads: defined here, not only inherited
    assert attr in owner.__dict__


def test_interval_clock_hooks_exist_and_restore():
    run, step = IntervalSimulator.run, IntervalSimulator.step_thermal
    assert "run" in IntervalSimulator.__dict__
    assert "step_thermal" in IntervalSimulator.__dict__
    clock = IntervalClock()
    clock.install()
    try:
        assert IntervalSimulator.run is not run
        assert IntervalSimulator.step_thermal is not step
    finally:
        clock.uninstall()
    assert IntervalSimulator.run is run
    assert IntervalSimulator.step_thermal is step
