"""Time-domain stimulus waveforms for independent sources.

The paper trains the model with a "low-frequency high-amplitude sinusoidal
input for 1 period" and validates it with a "spectrally-rich bit pattern input
at 2.5 GS/s".  This module provides those stimuli plus the usual SPICE
primitives (DC, pulse) as small callable objects.

A waveform is a callable ``w(t) -> float``; the sources evaluate it one time
point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Waveform",
    "DC",
    "Sine",
    "Pulse",
    "BitPattern",
    "prbs_bits",
]


class Waveform:
    """Base class for time-domain stimuli.

    Subclasses implement :meth:`value` and, where the waveform has corners,
    :meth:`breakpoints`.
    """

    def value(self, t: float) -> float:
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return self.value(float(t))

    def breakpoints(self, t_start: float, t_stop: float) -> np.ndarray:
        """Times in ``[t_start, t_stop]`` where the waveform has a corner.

        A *breakpoint* is a point where the waveform or its derivative is
        discontinuous — pulse edges and bit-pattern transitions.  The adaptive
        transient controller clamps its step so no accepted interval straddles
        one (stepping clean across a transition lands on a smooth solution and
        leaves the LTE estimate nothing to reject).  Smooth waveforms return an
        empty array.
        """
        return np.empty(0)


def _clip_breakpoints(times, t_start: float, t_stop: float) -> np.ndarray:
    """Sorted unique corner times restricted to ``[t_start, t_stop]``."""
    times = np.unique(np.asarray(times, dtype=float))
    return times[(times >= t_start) & (times <= t_stop)]


@dataclass
class DC(Waveform):
    """Constant waveform."""

    level: float = 0.0

    def value(self, t: float) -> float:
        return self.level


@dataclass
class Sine(Waveform):
    """``offset + amplitude * sin(2*pi*frequency*(t - delay) + phase)``.

    Before ``delay`` the waveform sits at ``offset`` (SPICE ``SIN`` semantics).
    """

    offset: float = 0.0
    amplitude: float = 1.0
    frequency: float = 1.0
    delay: float = 0.0
    phase: float = 0.0
    damping: float = 0.0

    def value(self, t: float) -> float:
        if t < self.delay:
            return self.offset + self.amplitude * math.sin(self.phase)
        tau = t - self.delay
        envelope = math.exp(-self.damping * tau) if self.damping else 1.0
        return self.offset + self.amplitude * envelope * math.sin(
            2.0 * math.pi * self.frequency * tau + self.phase)

    def breakpoints(self, t_start: float, t_stop: float) -> np.ndarray:
        # Smooth everywhere except the slope kink where the hold ends.
        if self.delay > 0.0:
            return _clip_breakpoints([self.delay], t_start, t_stop)
        return np.empty(0)


@dataclass
class Pulse(Waveform):
    """SPICE ``PULSE`` source with linear rise/fall edges."""

    initial: float = 0.0
    pulsed: float = 1.0
    delay: float = 0.0
    rise: float = 1e-12
    fall: float = 1e-12
    width: float = 1e-9
    period: float = 2e-9

    def value(self, t: float) -> float:
        if t < self.delay:
            return self.initial
        tau = (t - self.delay) % self.period
        rise = max(self.rise, 1e-18)
        fall = max(self.fall, 1e-18)
        if tau < rise:
            return self.initial + (self.pulsed - self.initial) * tau / rise
        if tau < rise + self.width:
            return self.pulsed
        if tau < rise + self.width + fall:
            frac = (tau - rise - self.width) / fall
            return self.pulsed + (self.initial - self.pulsed) * frac
        return self.initial

    def breakpoints(self, t_start: float, t_stop: float) -> np.ndarray:
        rise = max(self.rise, 1e-18)
        fall = max(self.fall, 1e-18)
        corners = np.array([0.0, rise, rise + self.width,
                            rise + self.width + fall])
        first = max(0, int(math.floor((t_start - self.delay) / self.period)))
        last = int(math.floor((t_stop - self.delay) / self.period))
        if last < first:
            return np.empty(0)
        periods = self.delay + self.period * np.arange(first, last + 1)
        return _clip_breakpoints((periods[:, None] + corners[None, :]).ravel(),
                                 t_start, t_stop)


def prbs_bits(n_bits: int, order: int = 7, seed: int = 0b1010101) -> list[int]:
    """Generate a pseudo-random binary sequence using an LFSR.

    ``order`` selects the PRBS polynomial (7, 9, 15 or 23 are the usual
    choices); the default PRBS-7 (x^7 + x^6 + 1) gives the "spectrally-rich
    bit pattern" flavour used for validation in the paper.
    """
    taps = {7: (7, 6), 9: (9, 5), 15: (15, 14), 23: (23, 18)}
    if order not in taps:
        raise ValueError(f"unsupported PRBS order {order}; choose from {sorted(taps)}")
    a, b = taps[order]
    state = seed & ((1 << order) - 1)
    if state == 0:
        state = 1
    bits: list[int] = []
    for _ in range(n_bits):
        new_bit = ((state >> (a - 1)) ^ (state >> (b - 1))) & 1
        bits.append(state & 1)
        state = ((state << 1) | new_bit) & ((1 << order) - 1)
    return bits


@dataclass
class BitPattern(Waveform):
    """Random or user-supplied bit pattern with raised-cosine edges.

    This reproduces the paper's validation stimulus: a spectrally-rich bit
    pattern at ``bit_rate`` symbols per second swinging between ``low`` and
    ``high``.  Raised-cosine edges of duration ``edge_time`` keep the
    excitation band-limited so that the transistor-level reference transient
    remains well behaved.
    """

    bits: Sequence[int] = field(default_factory=lambda: prbs_bits(32))
    bit_rate: float = 2.5e9
    low: float = 0.0
    high: float = 1.0
    edge_time: float | None = None
    delay: float = 0.0

    def __post_init__(self) -> None:
        self._bits = [1 if b else 0 for b in self.bits]
        if not self._bits:
            self._bits = [0]
        self._bit_period = 1.0 / float(self.bit_rate)
        if self.edge_time is None:
            self.edge_time = 0.25 * self._bit_period
        self._edge = min(float(self.edge_time), self._bit_period)
        self._levels = np.where(np.array(self._bits, dtype=bool),
                                float(self.high), float(self.low))

    @property
    def duration(self) -> float:
        """Total duration of the pattern (delay + all bits)."""
        return self.delay + len(self._bits) * self._bit_period

    def _level(self, bit_index: int) -> float:
        if bit_index < 0:
            bit_index = 0
        if bit_index >= len(self._bits):
            bit_index = len(self._bits) - 1
        return self.high if self._bits[bit_index] else self.low

    def value(self, t: float) -> float:
        tau = t - self.delay
        if tau <= 0.0:
            return self._level(0)
        index = int(tau // self._bit_period)
        if index >= len(self._bits):
            return self._level(len(self._bits) - 1)
        t_in_bit = tau - index * self._bit_period
        current = self._level(index)
        previous = self._level(index - 1) if index > 0 else current
        if t_in_bit >= self._edge or current == previous:
            return current
        # Raised-cosine transition from the previous level to the current one.
        phase = t_in_bit / self._edge
        blend = 0.5 * (1.0 - math.cos(math.pi * phase))
        return previous + (current - previous) * blend

    def breakpoints(self, t_start: float, t_stop: float) -> np.ndarray:
        """Start and end of every raised-cosine transition between bits.

        The curve is smooth inside a transition but its second derivative
        jumps at both ends; landing the integrator on those times keeps the
        LTE controller from stepping across an entire bit edge.
        """
        levels = self._levels
        changed = np.flatnonzero(levels[1:] != levels[:-1]) + 1
        if changed.size == 0:
            return np.empty(0)
        starts = self.delay + changed * self._bit_period
        return _clip_breakpoints(np.concatenate([starts, starts + self._edge]),
                                 t_start, t_stop)
