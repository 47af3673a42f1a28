"""On-off-keyed modem settings and receiver maths.

Transmitter and receiver parameter sets, the RC section coefficients used by
the noise filter and the envelope smoother, and the hysteresis comparator.
The line chain in iptsim.simulate composes them into the link.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Comparator switching points sit +/-10% around the nominal threshold so a
# noisy envelope cannot chatter the logic output.
HYSTERESIS_FRACTION = 0.10
CARRIER_CYCLES_PER_BIT = 10  # the fewest carrier cycles in one bit period


@dataclass(frozen=True)
class TxParams:
    """Transmitter settings: carrier, timing, and switching-stage levels."""

    carrier_freq: float  # Hz
    sample_rate: float   # Hz
    bit_rate: float      # bit/s
    vcc: float           # V, collector supply
    rc_load: float       # ohm, collector load
    ic_on: float         # A, collector current when switched on

    def __post_init__(self):
        for name in ("carrier_freq", "sample_rate", "bit_rate", "vcc", "rc_load"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0 <= self.ic_on < math.inf:
            raise ValueError("ic_on must be finite and non-negative")
        if self.sample_rate < 20 * self.carrier_freq:
            raise ValueError("sample_rate must be at least 20x the carrier")
        if self.carrier_freq < CARRIER_CYCLES_PER_BIT * self.bit_rate:
            raise ValueError(f"carrier_freq must be at least {CARRIER_CYCLES_PER_BIT}x "
                             "the bit rate")
        if self.vcc - self.swing < 0:
            raise ValueError("vcc must be at least the saturated drop ic_on*rc_load")

    @property
    def swing(self) -> float:
        return self.ic_on * self.rc_load  # V, how far the on transistor pulls below vcc


@dataclass(frozen=True)
class RxParams:
    """Receiver settings: filter corner, envelope smoothing, comparator threshold.

    envelope_order cascades that many identical RC smoothing sections; one
    section is the plain rectifier-plus-RC detector.
    """

    hf_cutoff: float       # Hz, per-stage corner of the noise filter
    envelope_tau: float    # s, per-section smoothing time constant
    threshold: float       # V, comparator center
    envelope_order: int = 1

    def __post_init__(self):
        for name in ("hf_cutoff", "envelope_tau", "threshold"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not (isinstance(self.envelope_order, numbers.Integral) and self.envelope_order >= 1):
            raise ValueError(f"envelope_order must be an integer of at least 1, "
                             f"got {self.envelope_order!r}")


def lowpass_coeffs(cutoff_hz: float, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """First-order low-pass (b, a) with the stated corner frequency.

    Exact exponential mapping of the RC pole, so step and decay responses
    match the analog section sample-for-sample.
    """
    a1 = math.exp(-2.0 * math.pi * cutoff_hz / sample_rate)
    return np.array([1.0 - a1]), np.array([1.0, -a1])


def smoothing_coeffs(tau_s: float, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """First-order low-pass (b, a) with the stated time constant."""
    a1 = math.exp(-1.0 / (tau_s * sample_rate))
    return np.array([1.0 - a1]), np.array([1.0, -a1])


def hysteresis_compare(x: np.ndarray, high: float, low: float,
                       initial: bool = False) -> tuple[np.ndarray, bool]:
    """Two-threshold comparator over an array, built from its state changes.

    Output turns on above `high`, off below `low`, and holds in between.
    Only a sample that enters the above-`high` or below-`low` class can
    change the state, so the output is the runs between those of them that
    do.  Returns the boolean output and the final state (for chunked
    streaming).
    """
    cls = (x > high).view(np.int8) - (x < low).view(np.int8)
    change = np.flatnonzero(np.diff(cls, prepend=np.int8(0)) != 0)
    enter = change[cls[change] != 0]
    level = np.concatenate(([initial], cls[enter] > 0))
    flip = level[1:] != level[:-1]
    states = np.concatenate(([initial], level[1:][flip]))
    out = np.repeat(states, np.diff(enter[flip], prepend=0, append=x.size))
    return out, bool(states[-1])
