"""Inductively coupled link: coupling vs. air gap and the resonant pickup.

The link between the drive coil and the pickup coil is reduced to a scalar
voltage gain (coupling times the tank's magnitude response at the carrier);
the line chain in iptsim.simulate applies it and adds the channel's white
Gaussian noise.  Good enough for a narrowband OOK modem; no circuit-level
integration is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_inductances(*inductances: float) -> None:
    if any(l <= 0 for l in inductances):
        raise ValueError("coil inductances must be positive")


@dataclass(frozen=True)
class CoilPair:
    """Drive/pickup coil pair with its tuning capacitor and coupling model.

    Coupling falls off exponentially with the air gap:
    k(gap) = k0 * exp(-gap / decay_length).
    """

    l_primary: float     # H
    l_secondary: float   # H
    c_tank: float        # F, resonates the pickup coil
    k0: float            # coupling coefficient at zero gap
    decay_length: float  # m

    def __post_init__(self):
        _check_inductances(self.l_primary, self.l_secondary)
        if self.c_tank <= 0:
            raise ValueError("c_tank must be positive")
        if not 0 < self.k0 <= 1:
            raise ValueError(f"k0 must be in (0, 1], got {self.k0}")
        if self.decay_length <= 0:
            raise ValueError("decay_length must be positive")


@dataclass(frozen=True)
class LinkParams:
    """Physical channel: coil pair, operating air gap, and noise level."""

    coils: CoilPair
    gap: float = 0.0        # m
    noise_rms: float = 0.0  # V

    def __post_init__(self):
        if self.gap < 0:
            raise ValueError("gap must be non-negative")
        if self.noise_rms < 0:
            raise ValueError("noise_rms must be non-negative")


def coupling_coefficient(gap: float, coils: CoilPair) -> float:
    """Coupling coefficient at an air gap, k0 * exp(-gap / decay_length)."""
    if gap < 0:
        raise ValueError("gap must be non-negative")
    return coils.k0 * math.exp(-gap / coils.decay_length)


def mutual_inductance(k: float, coils: CoilPair) -> float:
    """Mutual inductance M = k * sqrt(L1 * L2)."""
    if not 0 <= k <= 1:
        raise ValueError(f"coupling must be in [0, 1], got {k}")
    return k * math.sqrt(coils.l_primary * coils.l_secondary)


def resonant_frequency(coils: CoilPair) -> float:
    """Resonant frequency of the pickup tank, 1 / (2*pi*sqrt(L2 * C))."""
    return 1.0 / (2.0 * math.pi * math.sqrt(coils.l_secondary * coils.c_tank))


def tuned_c_tank(freq: float, l_secondary: float) -> float:
    """Tank capacitance that resonates a pickup coil of l_secondary at freq."""
    _check_inductances(l_secondary)
    return 1.0 / ((2.0 * math.pi * freq) ** 2 * l_secondary)


def tank_gain(freq: float, coils: CoilPair, q_factor: float) -> float:
    """Normalized magnitude response of the resonant pickup at `freq`.

    Second-order series-resonant shape: unity at resonance, half-power
    points separated by f_res / Q.
    """
    if freq <= 0:
        raise ValueError("freq must be positive")
    if q_factor <= 0:
        raise ValueError("q_factor must be positive")
    f0 = resonant_frequency(coils)
    detune = freq / f0 - f0 / freq
    return 1.0 / math.sqrt(1.0 + (q_factor * detune) ** 2)


def voltage_gain(link: LinkParams, carrier_freq: float, q_factor: float) -> float:
    """Scalar drive-to-pickup voltage gain at the carrier frequency.

    Transformer-style transfer M / L1 scaled by the tank response.
    """
    k = coupling_coefficient(link.gap, link.coils)
    m = mutual_inductance(k, link.coils)
    return (m / link.coils.l_primary) * tank_gain(carrier_freq, link.coils, q_factor)

