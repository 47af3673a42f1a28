"""On-off-keyed modem settings and receiver maths.

Transmitter and receiver parameter sets, the RC section coefficients used by
the noise filter and the envelope smoother, and the hysteresis comparator.
The line chain in iptsim.simulate composes them into the link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Comparator switching points sit +/-10% around the nominal threshold so a
# noisy envelope cannot chatter the logic output.
HYSTERESIS_FRACTION = 0.10


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
        if self.bit_rate <= 0:
            raise ValueError("bit_rate must be positive")
        if self.sample_rate < 20 * self.carrier_freq:
            raise ValueError("sample_rate must be at least 20x the carrier")
        if self.carrier_freq < 10 * self.bit_rate:
            raise ValueError("carrier_freq must be at least 10x the bit rate")
        if self.vcc <= 0:
            raise ValueError("vcc must be positive")
        if self.rc_load <= 0:
            raise ValueError("rc_load must be positive")
        if self.ic_on < 0:
            raise ValueError("ic_on must be non-negative")
        if self.vcc - self.ic_on * self.rc_load < 0:
            raise ValueError("saturated output vcc - ic_on*rc_load must not go negative")


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
        if self.hf_cutoff <= 0:
            raise ValueError("hf_cutoff must be positive")
        if self.envelope_tau <= 0:
            raise ValueError("envelope_tau must be positive")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.envelope_order < 1:
            raise ValueError("envelope_order must be at least 1")


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
    """Two-threshold comparator over an array, vectorized.

    Output turns on above `high`, off below `low`, and holds in between.
    Returns the boolean output and the final state (for chunked streaming).
    """
    cls = np.zeros(x.size, dtype=np.int8)
    cls[x > high] = 1
    cls[x < low] = -1
    pos = np.where(cls != 0, np.arange(x.size), -1)
    np.maximum.accumulate(pos, out=pos)
    out = np.where(pos >= 0, cls[np.maximum(pos, 0)] > 0, initial)
    state = bool(out[-1]) if out.size else initial
    return out, state
