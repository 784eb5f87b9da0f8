"""Property-based round trips for serialization."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import result_from_dict, result_to_dict
from repro.sim.metrics import SimulationResult

_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(sim_time_s=_finite, peak_c=_finite, above_s=_finite)
def test_result_json_round_trip(sim_time_s, peak_c, above_s):
    """The result's floats survive JSON text bit for bit."""
    result = SimulationResult("x", sim_time_s, peak_c, above_s)
    restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
    assert restored.sim_time_s.hex() == sim_time_s.hex()
    assert restored.peak_temperature_c.hex() == peak_c.hex()
    assert restored.time_above_dtm_s.hex() == above_s.hex()
