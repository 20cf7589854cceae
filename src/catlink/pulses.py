"""Drive pulse schedules.

A schedule maps named channels (the two-photon drive and its orthogonal
quadrature) to amplitudes over [0, duration].  A closed-form channel is a
function of time; a piecewise-constant channel is its array of values on
equal-length segments, which ``dynamics.evolve`` integrates one segment at a
time.  ``catqubit.time_reversed`` runs a schedule backwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

__all__ = ["PulseSchedule", "piecewise_constant"]

# a function of time, or the values on equal-length constant segments
Channel = Union[Callable[[float], complex], np.ndarray]


@dataclass(frozen=True)
class PulseSchedule:
    """Named drive amplitudes over [0, duration]; each channel is a function
    of time or an array of segment values (see ``piecewise_constant``)."""

    duration: float
    channels: Mapping[str, Channel]

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("pulse duration must be positive")
        object.__setattr__(self, "channels", dict(self.channels))


def piecewise_constant(duration: float,
                       values: Mapping[str, np.ndarray]) -> PulseSchedule:
    """Schedule whose channels are constant on n equal-length segments.

    All channels must have the same segment count n >= 1; segment k covers
    [k dt, (k + 1) dt) with dt = duration / n, and each channel is stored as
    its complex array of n values.
    """
    arrays = {k: np.array(v, dtype=complex, ndmin=1) for k, v in values.items()}
    lengths = {len(v) for v in arrays.values()}
    if len(lengths) != 1:
        raise ValueError("all channels need the same number of segments")
    if lengths.pop() < 1:
        raise ValueError("need at least one segment")
    return PulseSchedule(duration=duration, channels=arrays)

