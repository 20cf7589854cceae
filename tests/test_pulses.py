import numpy as np
import pytest

from catlink.pulses import PulseSchedule, piecewise_constant, reversed_schedule


def test_piecewise_lookup_and_edges():
    sched = piecewise_constant(2.0, {"a": np.array([1.0, 2.0, 3.0, 4.0])})
    assert sched.breakpoints == (0.5, 1.0, 1.5)
    assert sched.amplitude("a", 0.1) == 1.0
    assert sched.amplitude("a", 0.6) == 2.0
    assert sched.amplitude("a", 1.999) == 4.0
    assert sched.amplitude("a", 2.0) == 4.0  # clamped to the last segment


@pytest.mark.parametrize("reverse", [False, True])
def test_right_continuous_at_every_edge(reverse):
    # segment k starts at breakpoints[k - 1] itself, also where float rounding
    # makes int(t / dt) land on segment k - 1, and in the reversed copy
    rng = np.random.default_rng(5)
    for duration in rng.uniform(0.1, 100.0, 200):
        values = rng.uniform(-1.0, 1.0, 64)
        sched = piecewise_constant(duration, {"u": values})
        if reverse:
            sched, values = reversed_schedule(sched), values[::-1]
        assert len(sched.breakpoints) == 63
        assert [sched.amplitude("u", t) for t in sched.breakpoints] == list(values[1:])


def test_piecewise_requires_matching_lengths():
    with pytest.raises(ValueError):
        piecewise_constant(1.0, {"a": np.ones(4), "b": np.ones(3)})


def test_reversed_schedule():
    sched = piecewise_constant(1.0, {"a": np.array([1.0, 2.0, 5.0])})
    rev = reversed_schedule(sched)
    assert rev.amplitude("a", 0.1) == 5.0
    assert rev.amplitude("a", 0.9) == 1.0
    assert np.allclose(rev.segment_values["a"], [5.0, 2.0, 1.0])


def test_reversed_closed_form():
    sched = PulseSchedule(1.0, {"a": lambda t: 3.0 * t})
    rev = reversed_schedule(sched)
    assert rev.amplitude("a", 0.25) == pytest.approx(3.0 * 0.75)


def test_csv_export(tmp_path):
    sched = piecewise_constant(1.0, {"e_p": np.array([1.0, 2.0]),
                                     "e_perp": np.array([0.5, -0.5])})
    path = tmp_path / "pulse.csv"
    sched.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_start,t_end,e_p,e_perp"
    assert len(lines) == 3


def test_csv_export_rejects_smooth_schedule(tmp_path):
    path = tmp_path / "pulse.csv"
    with pytest.raises(ValueError, match="piecewise-constant"):
        PulseSchedule(1.0, {"a": lambda t: 3.0 * t}).to_csv(path)
    assert not path.exists()


def test_duration_must_be_positive():
    with pytest.raises(ValueError):
        PulseSchedule(0.0, {"a": lambda t: 0.0})
