import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iptsim.channel import (LinkParams, coupling_coefficient, mutual_inductance,
                            resonant_frequency, tank_gain, tuned_c_tank, voltage_gain)
from iptsim.simulate import _LineChain

LINK = LinkParams(l_primary=1e-3, l_secondary=1e-3, c_tank=100e-9,
                  k0=0.6, decay_length=0.04, q_factor=10.0)


def _at(gap):
    return replace(LINK, gap=gap)


def test_coupling_at_zero_gap_is_k0():
    assert coupling_coefficient(LINK) == LINK.k0


def test_coupling_at_one_decay_length():
    assert coupling_coefficient(_at(0.04)) == pytest.approx(LINK.k0 / math.e, rel=1e-12)


def test_coupling_positive_at_large_gap():
    k = coupling_coefficient(_at(10.0))
    assert 0 < k < coupling_coefficient(_at(1.0))


def test_coupling_rejects_negative_gap():
    # A link cannot hold a negative gap, so coupling_coefficient never sees one.
    with pytest.raises(ValueError):
        coupling_coefficient(_at(-0.01))


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1e-4, max_value=0.5))
def test_coupling_strictly_decreasing(gap, step):
    assert coupling_coefficient(_at(gap + step)) < coupling_coefficient(_at(gap))


def test_mutual_inductance_zero_coupling():
    assert mutual_inductance(0.0, LINK) == 0.0


def test_mutual_inductance_equal_coils():
    assert mutual_inductance(0.5, LINK) == pytest.approx(0.5e-3, rel=1e-12)


def test_mutual_inductance_uneven_coils():
    link = replace(LINK, l_secondary=4e-3)
    assert mutual_inductance(0.3, link) == pytest.approx(0.6e-3, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_mutual_inductance_linear_and_bounded(k):
    m = mutual_inductance(k, LINK)
    assert m == pytest.approx(k * mutual_inductance(1.0, LINK), abs=1e-18)
    assert m <= math.sqrt(LINK.l_primary * LINK.l_secondary) + 1e-18


def test_resonant_frequency_value():
    assert resonant_frequency(LINK) == pytest.approx(15915.4943, rel=1e-8)


def test_resonant_frequency_scaling():
    scaled = replace(LINK, l_secondary=4e-3, c_tank=400e-9)
    assert resonant_frequency(scaled) == pytest.approx(resonant_frequency(LINK) / 4, rel=1e-12)


def test_resonant_frequency_identity():
    link = replace(LINK, l_secondary=1.0, c_tank=1.0 / (4 * math.pi ** 2))
    assert resonant_frequency(link) == pytest.approx(1.0, rel=1e-12)


def test_tank_gain_peak_normalized():
    f0 = resonant_frequency(LINK)
    assert tank_gain(f0, LINK) == pytest.approx(1.0, rel=1e-12)


def test_tank_gain_off_resonance():
    f0 = resonant_frequency(LINK)
    assert tank_gain(f0 / 10, LINK) < 1.0
    assert tank_gain(10 * f0, LINK) < 1.0


def test_tank_gain_half_power_points():
    f0 = resonant_frequency(LINK)
    q = LINK.q_factor
    # Solutions of |f/f0 - f0/f| = 1/Q, separated by exactly f0/Q.
    f_lo = f0 * (math.sqrt(1 + 1 / (4 * q * q)) - 1 / (2 * q))
    f_hi = f0 * (math.sqrt(1 + 1 / (4 * q * q)) + 1 / (2 * q))
    assert tank_gain(f_lo, LINK) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert tank_gain(f_hi, LINK) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert f_hi - f_lo == pytest.approx(f0 / q, rel=1e-9)


def test_tank_gain_peaks_at_resonance_over_log_sweep():
    f0 = resonant_frequency(LINK)
    freqs = np.logspace(math.log10(f0 / 100), math.log10(f0 * 100), 4001)
    gains = [tank_gain(f, LINK) for f in freqs]
    peak = freqs[int(np.argmax(gains))]
    step = freqs[1] / freqs[0]
    assert f0 / step <= peak <= f0 * step


def _tone(freq, fs, n):
    return np.sin(2 * np.pi * freq * np.arange(n) / fs)


def _couple(x, link, tx, rx, noise_seed=0):
    """The line chain's coupling stage: link gain plus channel noise."""
    return _LineChain(link, tx, rx, noise_seed).couple(x)


def test_propagate_noiseless_is_scaled_copy(tx_params, rx_params):
    link = replace(LINK, gap=0.0, noise_rms=0.0, q_factor=1e6)
    f0 = resonant_frequency(link)
    x = _tone(f0, 1e6, 20000)
    out = _couple(x, link, replace(tx_params, carrier_freq=f0), rx_params)
    gain = voltage_gain(link, f0)
    assert gain == pytest.approx(link.k0, rel=1e-9)  # on-resonance, equal coils
    assert np.allclose(out, gain * x, rtol=1e-9, atol=1e-15)


def test_propagate_deterministic_for_fixed_seed(tx_params, rx_params):
    link = replace(LINK, gap=0.02, noise_rms=0.05)
    x = _tone(10e3, 1e6, 5000)
    a = _couple(x, link, tx_params, rx_params, noise_seed=99)
    b = _couple(x, link, tx_params, rx_params, noise_seed=99)
    c = _couple(x, link, tx_params, rx_params, noise_seed=100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_propagate_noise_rms_on_silent_input(tx_params, rx_params):
    link = replace(LINK, gap=0.0, noise_rms=0.1)
    out = _couple(np.zeros(200_000), link, tx_params, rx_params, noise_seed=7)
    rms = np.sqrt(np.mean(out ** 2))
    assert rms == pytest.approx(0.1, rel=0.05)


def test_propagate_linear_when_noiseless(tx_params, rx_params):
    link = replace(LINK, gap=0.01, noise_rms=0.0)
    rng = np.random.default_rng(3)
    x = _tone(10e3, 1e6, 4000) * rng.normal(1, 0.1, 4000)
    one = _couple(x, link, tx_params, rx_params)
    scaled = _couple(3.5 * x, link, tx_params, rx_params)
    assert np.allclose(scaled, 3.5 * one, rtol=1e-9)


def test_propagate_same_length_and_rate(tx_params, rx_params):
    link = replace(LINK, gap=0.03, noise_rms=0.01)
    out = _couple(_tone(10e3, 1e6, 12345), link, tx_params, rx_params, noise_seed=1)
    assert out.shape == (12345,)


@pytest.mark.parametrize("field,value", [
    ("l_primary", 0.0), ("l_secondary", -1e-3), ("c_tank", 0.0),
    ("k0", 0.0), ("k0", 1.5), ("decay_length", 0.0),
])
def test_coil_pair_invariants(field, value):
    with pytest.raises(ValueError):
        replace(LINK, **{field: value})


def test_link_params_invariants():
    with pytest.raises(ValueError):
        replace(LINK, gap=-0.01)
    with pytest.raises(ValueError):
        replace(LINK, noise_rms=-0.1)
    with pytest.raises(ValueError):
        replace(LINK, q_factor=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("field", [f.name for f in fields(LinkParams)])
def test_link_params_refuse_non_finite(field, value):
    with pytest.raises(ValueError):
        replace(LINK, **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=str)
def test_tuned_c_tank_refuses_non_finite_inductance(value):
    with pytest.raises(ValueError, match="^l_secondary must be finite and positive$"):
        tuned_c_tank(10e3, value)


@pytest.mark.parametrize("freq", [math.nan, math.inf, 0.0, -10e3], ids=str)
def test_frequency_arguments_refuse_non_finite_and_non_positive(freq):
    # NaN fails every ordered comparison, and an infinite frequency would give
    # a 0 F tank and a gain of 0.
    with pytest.raises(ValueError, match="^freq must be finite and positive$"):
        tuned_c_tank(freq, 1e-3)
    with pytest.raises(ValueError, match="^freq must be finite and positive$"):
        tank_gain(freq, LINK)
