import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iptsim.channel import (CoilPair, LinkParams, coupling_coefficient,
                            mutual_inductance, resonant_frequency, tank_gain,
                            voltage_gain)
from iptsim.simulate import _LineChain

COILS = CoilPair(l_primary=1e-3, l_secondary=1e-3, c_tank=100e-9,
                 k0=0.6, decay_length=0.04)


def test_coupling_at_zero_gap_is_k0():
    assert coupling_coefficient(0.0, COILS) == COILS.k0


def test_coupling_at_one_decay_length():
    assert coupling_coefficient(0.04, COILS) == pytest.approx(COILS.k0 / math.e, rel=1e-12)


def test_coupling_positive_at_large_gap():
    k = coupling_coefficient(10.0, COILS)
    assert 0 < k < coupling_coefficient(1.0, COILS)


def test_coupling_rejects_negative_gap():
    with pytest.raises(ValueError):
        coupling_coefficient(-0.01, COILS)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1e-4, max_value=0.5))
def test_coupling_strictly_decreasing(gap, step):
    assert coupling_coefficient(gap + step, COILS) < coupling_coefficient(gap, COILS)


def test_mutual_inductance_zero_coupling():
    assert mutual_inductance(0.0, COILS) == 0.0


def test_mutual_inductance_equal_coils():
    assert mutual_inductance(0.5, COILS) == pytest.approx(0.5e-3, rel=1e-12)


def test_mutual_inductance_uneven_coils():
    coils = CoilPair(1e-3, 4e-3, 100e-9, 0.6, 0.04)
    assert mutual_inductance(0.3, coils) == pytest.approx(0.6e-3, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_mutual_inductance_linear_and_bounded(k):
    m = mutual_inductance(k, COILS)
    assert m == pytest.approx(k * mutual_inductance(1.0, COILS), abs=1e-18)
    assert m <= math.sqrt(COILS.l_primary * COILS.l_secondary) + 1e-18


def test_resonant_frequency_value():
    assert resonant_frequency(COILS) == pytest.approx(15915.4943, rel=1e-8)


def test_resonant_frequency_scaling():
    scaled = CoilPair(1e-3, 4e-3, 400e-9, 0.6, 0.04)
    assert resonant_frequency(scaled) == pytest.approx(resonant_frequency(COILS) / 4, rel=1e-12)


def test_resonant_frequency_identity():
    coils = CoilPair(1e-3, 1.0, 1.0 / (4 * math.pi ** 2), 0.6, 0.04)
    assert resonant_frequency(coils) == pytest.approx(1.0, rel=1e-12)


def test_tank_gain_peak_normalized():
    f0 = resonant_frequency(COILS)
    assert tank_gain(f0, COILS, 10.0) == pytest.approx(1.0, rel=1e-12)


def test_tank_gain_off_resonance():
    f0 = resonant_frequency(COILS)
    assert tank_gain(f0 / 10, COILS, 10.0) < 1.0
    assert tank_gain(10 * f0, COILS, 10.0) < 1.0


def test_tank_gain_half_power_points():
    f0 = resonant_frequency(COILS)
    q = 10.0
    # Solutions of |f/f0 - f0/f| = 1/Q, separated by exactly f0/Q.
    f_lo = f0 * (math.sqrt(1 + 1 / (4 * q * q)) - 1 / (2 * q))
    f_hi = f0 * (math.sqrt(1 + 1 / (4 * q * q)) + 1 / (2 * q))
    assert tank_gain(f_lo, COILS, q) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert tank_gain(f_hi, COILS, q) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert f_hi - f_lo == pytest.approx(f0 / q, rel=1e-9)


def test_tank_gain_peaks_at_resonance_over_log_sweep():
    f0 = resonant_frequency(COILS)
    freqs = np.logspace(math.log10(f0 / 100), math.log10(f0 * 100), 4001)
    gains = [tank_gain(f, COILS, 10.0) for f in freqs]
    peak = freqs[int(np.argmax(gains))]
    step = freqs[1] / freqs[0]
    assert f0 / step <= peak <= f0 * step


def _tone(freq, fs, n):
    return np.sin(2 * np.pi * freq * np.arange(n) / fs)


def _couple(x, link, tx, rx, q_factor=10.0, noise_seed=0):
    """The line chain's coupling stage: link gain plus channel noise."""
    return _LineChain(link, tx, rx, q_factor, noise_seed).couple(x)


def test_propagate_noiseless_is_scaled_copy(tx_params, rx_params):
    link = LinkParams(coils=COILS, gap=0.0, noise_rms=0.0)
    f0 = resonant_frequency(COILS)
    x = _tone(f0, 1e6, 20000)
    out = _couple(x, link, replace(tx_params, carrier_freq=f0), rx_params, q_factor=1e6)
    gain = voltage_gain(link, f0, 1e6)
    assert gain == pytest.approx(COILS.k0, rel=1e-9)  # on-resonance, equal coils
    assert np.allclose(out, gain * x, rtol=1e-9, atol=1e-15)


def test_propagate_deterministic_for_fixed_seed(tx_params, rx_params):
    link = LinkParams(coils=COILS, gap=0.02, noise_rms=0.05)
    x = _tone(10e3, 1e6, 5000)
    a = _couple(x, link, tx_params, rx_params, noise_seed=99)
    b = _couple(x, link, tx_params, rx_params, noise_seed=99)
    c = _couple(x, link, tx_params, rx_params, noise_seed=100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_propagate_noise_rms_on_silent_input(tx_params, rx_params):
    link = LinkParams(coils=COILS, gap=0.0, noise_rms=0.1)
    out = _couple(np.zeros(200_000), link, tx_params, rx_params, noise_seed=7)
    rms = np.sqrt(np.mean(out ** 2))
    assert rms == pytest.approx(0.1, rel=0.05)


def test_propagate_linear_when_noiseless(tx_params, rx_params):
    link = LinkParams(coils=COILS, gap=0.01, noise_rms=0.0)
    rng = np.random.default_rng(3)
    x = _tone(10e3, 1e6, 4000) * rng.normal(1, 0.1, 4000)
    one = _couple(x, link, tx_params, rx_params)
    scaled = _couple(3.5 * x, link, tx_params, rx_params)
    assert np.allclose(scaled, 3.5 * one, rtol=1e-9)


def test_propagate_same_length_and_rate(tx_params, rx_params):
    link = LinkParams(coils=COILS, gap=0.03, noise_rms=0.01)
    out = _couple(_tone(10e3, 1e6, 12345), link, tx_params, rx_params, noise_seed=1)
    assert out.shape == (12345,)


@pytest.mark.parametrize("field,value", [
    ("l_primary", 0.0), ("l_secondary", -1e-3), ("c_tank", 0.0),
    ("k0", 0.0), ("k0", 1.5), ("decay_length", 0.0),
])
def test_coil_pair_invariants(field, value):
    kwargs = dict(l_primary=1e-3, l_secondary=1e-3, c_tank=100e-9,
                  k0=0.6, decay_length=0.04)
    kwargs[field] = value
    with pytest.raises(ValueError):
        CoilPair(**kwargs)


def test_link_params_invariants():
    with pytest.raises(ValueError):
        LinkParams(coils=COILS, gap=-0.01)
    with pytest.raises(ValueError):
        LinkParams(coils=COILS, noise_rms=-0.1)
