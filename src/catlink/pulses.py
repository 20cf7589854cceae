"""Drive pulse schedules.

A schedule maps named channels (two-photon drive, orthogonal two-photon
drive, single-photon drive, cavity coupling) to amplitude functions of time.
Closed-form channels are arbitrary callables; piecewise-constant channels
carry their segment values, from which integrators read the segment edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

__all__ = ["PulseSchedule", "piecewise_constant", "reversed_schedule"]


@dataclass(frozen=True)
class PulseSchedule:
    """Named drive amplitudes over [0, duration].

    ``segment_values`` holds each channel's values on equal-length constant
    segments when the schedule is piecewise constant, and is ``None`` when
    every channel is smooth.
    """

    duration: float
    channels: Mapping[str, Callable[[float], complex]]
    segment_values: Optional[dict[str, np.ndarray]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("pulse duration must be positive")
        object.__setattr__(self, "channels", dict(self.channels))

    @property
    def breakpoints(self) -> Optional[tuple[float, ...]]:
        """Interior segment edges k * duration / n_segments, or ``None`` for
        a smooth schedule."""
        if self.segment_values is None:
            return None
        return _segment_edges(self.duration, len(next(iter(self.segment_values.values()))))

    def amplitude(self, channel: str, t: float) -> complex:
        return self.channels[channel](t)

    def to_csv(self, path) -> None:
        """Write one row (t_start, t_end, <channel values...>) per segment of
        a piecewise-constant schedule; a smooth schedule has no segments and
        raises ``ValueError`` before the file is opened."""
        import csv

        if self.segment_values is None:
            raise ValueError("to_csv needs a piecewise-constant schedule, not a smooth one")
        names = sorted(self.segment_values)
        edges = (0.0, *self.breakpoints, self.duration)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_start", "t_end"] + names)
            for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                row = [repr(float(lo)), repr(float(hi))]
                for name in names:
                    val = complex(self.segment_values[name][k])
                    row.append(repr(val.real) if val.imag == 0 else repr(val))
                writer.writerow(row)


def _segment_edges(duration: float, n: int) -> tuple[float, ...]:
    dt = duration / n
    return tuple(float(dt * k) for k in range(1, n))


def piecewise_constant(duration: float,
                       values: Mapping[str, np.ndarray]) -> PulseSchedule:
    """Schedule with equal-length constant segments per channel.

    All channels must have the same segment count; segment k covers
    [edge_k, edge_k+1) with edge_k = float(k * dt), dt = duration / n_segments,
    so each channel is right-continuous at its own breakpoints.
    """
    lengths = {len(np.atleast_1d(v)) for v in values.values()}
    if len(lengths) != 1:
        raise ValueError("all channels need the same number of segments")
    n = lengths.pop()
    if n < 1:
        raise ValueError("need at least one segment")
    arrays = {k: np.array(v, dtype=complex) for k, v in values.items()}
    edges = np.array(_segment_edges(duration, n))

    def make_fn(arr: np.ndarray):
        def fn(t: float) -> complex:
            return complex(arr[np.searchsorted(edges, t, side="right")])
        return fn

    return PulseSchedule(duration=duration,
                         channels={k: make_fn(v) for k, v in arrays.items()},
                         segment_values=arrays)


def reversed_schedule(pulse: PulseSchedule) -> PulseSchedule:
    """Time-reversed copy: channel(t) -> channel(duration - t).

    A piecewise-constant schedule reverses its segment order, so the copy is
    right-continuous at its own breakpoints like any other.
    """
    dur = pulse.duration
    if pulse.segment_values is not None:
        return piecewise_constant(dur, {k: v[::-1] for k, v in pulse.segment_values.items()})

    def make_fn(fn):
        return lambda t: fn(dur - t)

    return PulseSchedule(duration=dur,
                         channels={k: make_fn(v) for k, v in pulse.channels.items()})
