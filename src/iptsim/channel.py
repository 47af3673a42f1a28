"""Inductively coupled link: coupling vs. air gap and the resonant pickup.

The link between the drive coil and the pickup coil is reduced to a scalar
voltage gain (coupling times the tank's magnitude response at the carrier);
the line chain in iptsim.simulate applies it and adds the channel's white
Gaussian noise.  So the tank has no dynamics: the OOK drive's DC and
harmonics cross at the carrier's gain, which makes rate results
optimistic (ROADMAP item 12).  No circuit-level integration is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LinkParams:
    """Physical channel: coil pair, tuned pickup tank, air gap and noise level.

    Coupling falls off exponentially with the air gap:
    k(gap) = k0 * exp(-gap / decay_length).
    """

    l_primary: float     # H
    l_secondary: float   # H
    c_tank: float        # F, resonates the pickup coil
    k0: float            # coupling coefficient at zero gap
    decay_length: float  # m
    q_factor: float      # quality factor of the pickup tank
    gap: float = 0.0        # m
    noise_rms: float = 0.0  # V

    def __post_init__(self):
        for name in ("l_primary", "l_secondary", "c_tank", "decay_length", "q_factor"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0 < self.k0 <= 1:
            raise ValueError(f"k0 must be in (0, 1], got {self.k0}")
        for name in ("gap", "noise_rms"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")


def coupling_coefficient(link: LinkParams) -> float:
    """Coupling coefficient at the link's air gap, k0 * exp(-gap / decay_length)."""
    return link.k0 * math.exp(-link.gap / link.decay_length)


def mutual_inductance(k: float, link: LinkParams) -> float:
    """Mutual inductance M = k * sqrt(L1 * L2)."""
    if not 0 <= k <= 1:
        raise ValueError(f"coupling must be in [0, 1], got {k}")
    return k * math.sqrt(link.l_primary * link.l_secondary)


def resonant_frequency(link: LinkParams) -> float:
    """Resonant frequency of the pickup tank, 1 / (2*pi*sqrt(L2 * C))."""
    return 1.0 / (2.0 * math.pi * math.sqrt(link.l_secondary * link.c_tank))


def tuned_c_tank(freq: float, l_secondary: float) -> float:
    """Tank capacitance that resonates a pickup coil of l_secondary at freq."""
    if not 0 < freq < math.inf:
        raise ValueError("freq must be finite and positive")
    if not 0 < l_secondary < math.inf:
        raise ValueError("l_secondary must be finite and positive")
    return 1.0 / ((2.0 * math.pi * freq) ** 2 * l_secondary)


def tank_gain(freq: float, link: LinkParams) -> float:
    """Normalized magnitude response of the resonant pickup at `freq`.

    Second-order series-resonant shape: unity at resonance, half-power
    points separated by f_res / Q.
    """
    if not 0 < freq < math.inf:
        raise ValueError("freq must be finite and positive")
    f0 = resonant_frequency(link)
    detune = freq / f0 - f0 / freq
    return 1.0 / math.sqrt(1.0 + (link.q_factor * detune) ** 2)


def voltage_gain(link: LinkParams, carrier_freq: float) -> float:
    """Scalar drive-to-pickup voltage gain at the carrier frequency.

    Transformer-style transfer M / L1 scaled by the tank response.
    """
    m = mutual_inductance(coupling_coefficient(link), link)
    return (m / link.l_primary) * tank_gain(carrier_freq, link)
