import numpy as np
import pytest

from catlink.pulses import PulseSchedule, piecewise_constant


def test_piecewise_stores_complex_segment_values():
    sched = piecewise_constant(2.0, {"a": [1.0, 2.0, 3.0, 4.0]})
    assert sched.channels["a"].dtype == complex
    assert np.array_equal(sched.channels["a"], [1.0, 2.0, 3.0, 4.0])


def test_piecewise_requires_matching_lengths():
    with pytest.raises(ValueError):
        piecewise_constant(1.0, {"a": np.ones(4), "b": np.ones(3)})


def test_duration_must_be_positive():
    with pytest.raises(ValueError):
        PulseSchedule(0.0, {"a": lambda t: 0.0})
