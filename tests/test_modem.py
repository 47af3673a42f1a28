import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

from iptsim.channel import LinkParams
from iptsim.config import noise_rms_for_snr
from iptsim.modem import (RxParams, TxParams, hysteresis_compare, lowpass_coeffs,
                          smoothing_coeffs)
from iptsim.simulate import _LineChain, run_line

from conftest import reference_compare

FS = 1e6
# Resonant at 10 kHz: a 0.05 m gap gives a link gain of about 0.17, so the
# 10 V drive swing settles near 0.86 V, well above the fixture threshold.
LINK = LinkParams(1e-3, 1e-3, 2.5330296e-7, 0.6, 0.04, q_factor=10.0, gap=0.05)


def _chain(tx, rx):
    return _LineChain(LINK, tx, rx, 0)


def _tone(freq, fs, n, amp=1.0):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / fs)


def _steady_amplitude(x, tail=0.5):
    seg = x[int(x.size * (1 - tail)):]
    return math.sqrt(2.0) * float(np.sqrt(np.mean(seg ** 2)))


def _drive(bits, tx, rx, k0=0):
    """The drive stage's switch state: True where the transistor is on."""
    on, _ = _chain(tx, rx).drive(np.asarray(bits, dtype=np.uint8), k0)
    return on


# ---- drive stage: carrier gating ---------------------------------------------

def test_gate_carrier_all_zero_bits(tx_params, rx_params):
    assert not np.any(_drive([0, 0, 0], tx_params, rx_params))


def test_gate_carrier_cycle_count(tx_params, rx_params):
    # One bit at 250 bit/s under a 10 kHz carrier holds 40 full cycles.
    on = _drive([1], tx_params, rx_params)
    switch_ons = np.count_nonzero(~on[:-1] & on[1:])
    assert on.size == 4000
    assert switch_ons == 40


def test_gate_carrier_gating_boundary(tx_params, rx_params):
    on = _drive([1, 0], tx_params, rx_params)
    assert np.any(on[:4000])
    assert not np.any(on[4000:])


def test_gate_carrier_phase_continuous(tx_params, rx_params):
    # The carrier phase runs on across bits, and across chunks that start
    # at a later bit index.
    both = _drive([1, 1], tx_params, rx_params)
    carrier = np.sin(2 * np.pi * tx_params.carrier_freq / FS * np.arange(8000))
    assert np.array_equal(both, carrier > 0.0)
    assert np.array_equal(_drive([1], tx_params, rx_params, k0=1), both[4000:])


def test_gate_carrier_rejects_empty(tx_params, rx_params):
    with pytest.raises(ValueError):
        run_line([], LINK, tx_params, rx_params, 0)


def test_gate_carrier_rejects_non_bits(tx_params, rx_params):
    with pytest.raises(ValueError):
        run_line([0, 2, 1], LINK, tx_params, rx_params, 0)


# ---- drive stage: switching transistor ---------------------------------------

# The switch output is vcc + on_level where the switch state is on, vcc elsewhere.

def test_switch_drive_cutoff_gives_vcc(rx_params):
    p = TxParams(10e3, 1e6, 250, vcc=12.0, rc_load=100.0, ic_on=0.0)
    assert np.any(_drive([1], p, rx_params))
    assert p.vcc + _chain(p, rx_params).on_level == 12.0


def test_switch_drive_on_level(tx_params, rx_params):
    assert np.any(_drive([1], tx_params, rx_params))
    assert tx_params.vcc + _chain(tx_params, rx_params).on_level == 2.0  # 12 - 0.1 * 100


def test_switch_drive_two_level_output(tx_params, rx_params):
    on = _drive([1, 0], tx_params, rx_params)
    assert on.dtype == bool
    assert set(np.unique(on)) == {False, True}
    assert tx_params.vcc + _chain(tx_params, rx_params).on_level == 2.0


# ---- HF filter stage ---------------------------------------------------------

def test_single_stage_attenuation_at_cutoff():
    out = lfilter(*lowpass_coeffs(20e3, 1e6), _tone(20e3, 1e6, 5000))
    assert _steady_amplitude(out) == pytest.approx(1 / math.sqrt(2), rel=0.01)


def test_two_stage_attenuation_at_ten_times_cutoff(tx_params, rx_params):
    # 20x oversampling of the tone keeps the discrete stage close to the
    # analog magnitude 1/sqrt(101) per stage.
    chain = _chain(replace(tx_params, sample_rate=4e6), rx_params)
    out = chain.filter_hf(_tone(200e3, 4e6, 40000))
    assert _steady_amplitude(out) == pytest.approx(1.0 / 101.0, rel=0.10)


def test_hf_filter_passes_dc(tx_params, rx_params):
    out = _chain(tx_params, rx_params).filter_hf(np.full(2000, 0.7))
    assert out[-1] == pytest.approx(0.7, rel=1e-6)


def test_hf_filter_superposition(tx_params, rx_params):
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=3000), rng.normal(size=3000)
    fx, fy, fxy = (_chain(tx_params, rx_params).filter_hf(v) for v in (x, y, x + y))
    assert np.allclose(fxy, fx + fy, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("hf_cutoff,sample_rate", [(20e3, 1e6), (5e3, 250e3), (60e3, 2e6),
                                                   (150e3, 4e6), (2e3, 3.3e5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_filter_hf_equals_two_chained_lfilter_sections(tx_params, rx_params, hf_cutoff,
                                                        sample_rate, seed):
    # One sosfilt call runs both sections.  Fed in random chunks with its
    # state carried, it must give the values of two chained lfilter sections
    # over the whole input.  Runs of exact zeros, like gated-off bits, are
    # where a zero may come out with the other sign; array_equal ignores it.
    chain = _chain(replace(tx_params, sample_rate=sample_rate),
                   replace(rx_params, hf_cutoff=hf_cutoff))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=20000)
    x[:500] = 0.0
    x[rng.random(x.size) < 0.2] = 0.0
    b, a = lowpass_coeffs(hf_cutoff, sample_rate)
    expected = lfilter(b, a, lfilter(b, a, x))
    cuts = np.sort(rng.choice(np.arange(1, x.size), 7, replace=False))
    got = np.concatenate([chain.filter_hf(part) for part in np.split(x, cuts)])
    assert np.array_equal(got, expected)


# ---- envelope stage ----------------------------------------------------------

def test_envelope_zero_input(tx_params, rx_params):
    out = _chain(tx_params, rx_params).envelope(np.zeros(1000))
    assert np.all(out == 0.0)


def test_envelope_settles_to_mean_rectified_sine(tx_params, rx_params):
    tau_samples = int(rx_params.envelope_tau * 1e6)
    env = _chain(tx_params, rx_params).envelope(_tone(10e3, 1e6, 40 * tau_samples))
    settled = env[5 * tau_samples:]
    assert np.all(np.abs(settled - 2 / np.pi) <= 0.05 * 2 / np.pi)


def test_envelope_decay_after_burst(tx_params, rx_params):
    tau_samples = int(rx_params.envelope_tau * 1e6)
    wave = np.concatenate([_tone(10e3, 1e6, 4000), np.zeros(8000)])
    env = _chain(tx_params, rx_params).envelope(wave)
    peak = env.max()
    assert env[4000 + 3 * tau_samples] < 0.05 * peak


def test_envelope_non_negative(tx_params, rx_params):
    rng = np.random.default_rng(5)
    env = _chain(tx_params, rx_params).envelope(rng.normal(size=5000))
    assert np.all(env >= 0.0)


@pytest.mark.parametrize("envelope_order", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_envelope_equals_chained_lfilter_sections(tx_params, rx_params, envelope_order, seed):
    # The cascade calls scipy's compiled lfilter kernel directly.  Fed in
    # random chunks with its state carried, it must give exactly the values
    # of scipy.signal.lfilter sections chained over the whole input.
    rx = replace(rx_params, envelope_order=envelope_order)
    chain = _chain(tx_params, rx)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=20000)
    x[rng.random(x.size) < 0.2] = 0.0
    b, a = smoothing_coeffs(rx.envelope_tau, tx_params.sample_rate)
    expected = np.abs(x)
    for _ in range(envelope_order):
        expected = lfilter(b, a, expected)
    cuts = np.sort(rng.choice(np.arange(1, x.size), 7, replace=False))
    got = np.concatenate([chain.envelope(part) for part in np.split(x, cuts)])
    assert np.array_equal(got, expected)


# ---- comparator stage --------------------------------------------------------

def test_level_convert_zero_input(tx_params, rx_params):
    out = _chain(tx_params, rx_params).compare(np.zeros(500))
    assert not np.any(out)


def test_level_convert_high_input(tx_params, rx_params):
    out = _chain(tx_params, rx_params).compare(np.full(500, 2 * rx_params.threshold))
    assert np.all(out)


def test_level_convert_ramp_single_transition_pair(tx_params, rx_params):
    up = np.linspace(0, 2 * rx_params.threshold, 5000)
    ramp = np.concatenate([up, up[::-1]])
    out = _chain(tx_params, rx_params).compare(ramp)
    transitions = np.count_nonzero(np.diff(out))
    assert transitions == 2
    assert set(np.unique(out)) == {False, True}


def test_level_convert_transitions_bounded_by_band_crossings(tx_params, rx_params):
    rng = np.random.default_rng(17)
    x = np.abs(rng.normal(rx_params.threshold, rx_params.threshold, 20000))
    out = _chain(tx_params, rx_params).compare(x)
    # A band crossing is a change between consecutive out-of-band sides
    # (above the high limit vs. below the low one), plus the first side
    # when it starts high (the comparator starts low).
    side = np.zeros(x.size, dtype=np.int8)
    side[x > rx_params.threshold * 1.1] = 1
    side[x < rx_params.threshold * 0.9] = -1
    sides = side[side != 0]
    crossings = np.count_nonzero(np.diff(sides) != 0) + (sides[0] == 1)
    assert np.count_nonzero(np.diff(out)) <= crossings


_HIGH, _LOW = 1.1, 0.9
_COMPARATOR_VALUES = st.sampled_from([0.0, 0.5, _LOW, 1.0, _HIGH, 2.0])


@settings(max_examples=200, deadline=None)
@given(x=st.lists(_COMPARATOR_VALUES, max_size=60), initial=st.booleans(),
       cuts=st.lists(st.integers(0, 60), max_size=4))
def test_hysteresis_compare_matches_scalar_loop(x, initial, cuts):
    # Values below low, in the band, above high and exactly on either limit;
    # the streamed form splits the input at random points and carries the state.
    x = np.array(x, dtype=float)
    expected, final = reference_compare(x, _HIGH, _LOW, initial)
    out, state = hysteresis_compare(x, _HIGH, _LOW, initial)
    assert out.dtype == bool
    assert np.array_equal(out, expected) and state == final
    parts, state = [], initial
    for part in np.split(x, sorted(min(c, x.size) for c in cuts)):
        out, state = hysteresis_compare(part, _HIGH, _LOW, state)
        parts.append(out)
    assert np.array_equal(np.concatenate(parts), expected) and state == final


@pytest.mark.parametrize("initial", [False, True])
@pytest.mark.parametrize("x", [np.empty(0), np.array([1.0, _HIGH, _LOW, 0.95])],
                         ids=["empty", "all_in_band"])
def test_hysteresis_compare_carries_initial_through(x, initial):
    out, state = hysteresis_compare(x, _HIGH, _LOW, initial)
    assert out.dtype == bool and out.size == x.size
    assert np.all(out == initial) and state is initial


# ---- whole chain -------------------------------------------------------------

def test_loopback_all_byte_patterns(tx_params, rx_params):
    for value in range(256):
        bits = [(value >> i) & 1 for i in range(8)]
        mids, _ = run_line(bits, LINK, tx_params, rx_params, 0)
        assert mids.tolist() == bits, f"byte 0x{value:02X} corrupted"


def test_demodulate_all_zero_waveform(tx_params, rx_params):
    mids, _ = run_line([0] * 8, LINK, tx_params, rx_params, 0)
    assert mids.tolist() == [0] * 8


def test_loopback_at_20db_snr(tx_params, rx_params):
    bits = np.random.default_rng(2024).integers(0, 2, 10_000)
    link = replace(LINK, noise_rms=noise_rms_for_snr(LINK, tx_params, 20.0))
    mids, _ = run_line(bits, link, tx_params, rx_params, 2024)
    ber = np.count_nonzero(mids != bits) / bits.size
    assert ber < 1e-3


def test_ber_non_increasing_in_noise(tx_params, rx_params):
    # One seed, so every run scales the same unit-variance noise draw.
    bits = np.random.default_rng(31).integers(0, 2, 3000)
    mark_rms = noise_rms_for_snr(LINK, tx_params, 0.0)
    bers = []
    for sigma in (2.0, 1.0, 0.1):
        link = replace(LINK, noise_rms=sigma * mark_rms)
        mids, _ = run_line(bits, link, tx_params, rx_params, 77)
        bers.append(np.count_nonzero(mids != bits) / bits.size)
    assert bers[0] >= bers[1] >= bers[2]
    assert bers[2] == 0.0


# ---- parameter invariants ---------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(carrier_freq=10e3, sample_rate=100e3, bit_rate=250, vcc=12, rc_load=100, ic_on=0.1),
    dict(carrier_freq=2e3, sample_rate=1e6, bit_rate=250, vcc=12, rc_load=100, ic_on=0.1),
    dict(carrier_freq=10e3, sample_rate=1e6, bit_rate=250, vcc=12, rc_load=100, ic_on=0.2),
    dict(carrier_freq=10e3, sample_rate=1e6, bit_rate=250, vcc=0, rc_load=100, ic_on=0.0),
])
def test_tx_params_invariants(kwargs):
    with pytest.raises(ValueError):
        TxParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(hf_cutoff=0, envelope_tau=1e-4, threshold=0.1),
    dict(hf_cutoff=20e3, envelope_tau=0, threshold=0.1),
    dict(hf_cutoff=20e3, envelope_tau=1e-4, threshold=0.0),
    dict(hf_cutoff=20e3, envelope_tau=1e-4, threshold=0.1, envelope_order=0),
    dict(hf_cutoff=20e3, envelope_tau=1e-4, threshold=0.1, envelope_order=2.5),
    dict(hf_cutoff=20e3, envelope_tau=1e-4, threshold=0.1, envelope_order=math.nan),
])
def test_rx_params_invariants(kwargs):
    with pytest.raises(ValueError):
        RxParams(**kwargs)


_TX = dict(carrier_freq=10e3, sample_rate=1e6, bit_rate=250, vcc=12, rc_load=100, ic_on=0.1)
_RX = dict(hf_cutoff=20e3, envelope_tau=1e-4, threshold=0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("cls,valid,field", [
    pytest.param(cls, valid, name, id=f"{cls.__name__}.{name}")
    for cls, valid in ((TxParams, _TX), (RxParams, _RX)) for name in valid])
def test_params_refuse_non_finite(cls, valid, field, value):
    cls(**valid)
    with pytest.raises(ValueError, match=field):
        cls(**{**valid, field: value})
