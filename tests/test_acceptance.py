"""Acceptance suite: every exit criterion at its stated tolerance.

The terminal summary hook in conftest.py prints one PASS/FAIL line per
criterion.  The air-gap and data-rate results verify the calibrated channel
model (k0 = 0.6, 40 mm decay length, threshold sized at the 10 cm budget),
not any particular physical coil pair; see the README for that caveat.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

from iptsim.config import build_config, with_settings
from iptsim.harness import ber_sweep, emit_csv, max_data_rate, run_scenario
from iptsim.modem import lowpass_coeffs
from iptsim.simulate import _LineChain, run_line
from iptsim.telemetry import (FaultSet, FrameError, MotorState, ProximityParams,
                              Thresholds, classify_faults, decode_frame,
                              encode_frame, proximity_pulses, speed_from_pulses)
from iptsim.usart import (UsartConfig, UsartRx, UsartTx, actual_baud, brg_divisor,
                          frame_encode)

from conftest import bits_to_levels_x16

BER_CEILING = 1e-3


@pytest.fixture(scope="module")
def baseline():
    return build_config()


@pytest.fixture(scope="module")
def baseline_maxrate(baseline):
    t0 = time.monotonic()
    result = max_data_rate(baseline, BER_CEILING)
    return result, time.monotonic() - t0


def test_c1_250_bps_under_baseline(baseline_maxrate):
    """Baseline link (10 kHz carrier, 5 cm gap, 20 dB SNR) carries 250 bit/s."""
    result, elapsed = baseline_maxrate
    assert result.rate_bps >= 250
    assert elapsed < 60.0


def test_c2_ten_cm_air_gap(baseline):
    """BER <= 1e-3 and >= 99% frame delivery at 250 bit/s across 0..10 cm."""
    gaps = [round(0.01 * i, 2) for i in range(11)]
    results = ber_sweep(baseline, "gap", gaps, bits_per_point=10_000)
    for r in results:
        assert r.bits_sent >= 10_000
        assert r.ber <= BER_CEILING, f"BER {r.ber} at gap {r.var}"
        assert r.frames_delivered >= 0.99 * r.frames_sent, \
            f"delivery {r.frames_delivered}/{r.frames_sent} at gap {r.var}"


def test_c3_filter_order_and_carrier_comparisons(baseline, baseline_maxrate):
    """A second filter section raises the max rate; a faster carrier never lowers it."""
    base_rate = baseline_maxrate[0].rate_bps
    second_order = max_data_rate(with_settings(baseline, {"rx.envelope_order": 2}), BER_CEILING)
    assert second_order.rate_bps > base_rate
    fast_carrier = max_data_rate(with_settings(baseline, {"tx.carrier_freq": 20e3}), BER_CEILING)
    assert fast_carrier.rate_bps >= base_rate


def test_c4a_baud_formula_grid():
    """actual_baud matches the generator arithmetic on a 200+ point grid."""
    points = 0
    for fosc in (1e6, 4e6, 8e6, 16e6, 20e6):
        for x in (0, 1, 2, 3, 7, 15, 25, 63, 107, 127, 191, 217, 249, 255):
            for sync, brgh, div in ((False, False, 64), (False, True, 16),
                                    (True, False, 4)):
                cfg = UsartConfig(fosc=fosc, spbrg=x, sync=sync, brgh=brgh)
                assert actual_baud(cfg) == fosc / (div * (x + 1))
                points += 1
    assert points >= 200


def test_c4b_divisor_for_9600():
    result = brg_divisor(4e6, 9600, brgh=True)
    assert result.spbrg == 25
    assert result.actual == pytest.approx(9615.38, rel=1e-4)
    assert result.error_pct == pytest.approx(0.16, abs=0.01)


def test_c4c_tx_rx_round_trip_all_bytes():
    cfg = UsartConfig(fosc=4e6, spbrg=249)
    for value in range(256):
        tx = UsartTx(cfg)
        rx = UsartRx(cfg)
        bits = [tx.tick()]
        tx.load(value)
        bits += [tx.tick() for _ in range(10)]
        for level in bits_to_levels_x16(bits + [1]):
            rx.sample(level)
        word, ferr = rx.read()
        assert word == value and ferr is False and rx.oerr is False


def test_c4d_fifo_overrun_semantics():
    cfg = UsartConfig(fosc=4e6, spbrg=249)
    rx = UsartRx(cfg)

    def feed(byte):
        for level in bits_to_levels_x16([1] + frame_encode(byte, None, cfg) + [1]):
            rx.sample(level)

    feed(0x01)
    feed(0x02)
    feed(0x03)                      # third byte: FIFO full
    assert rx.oerr is True
    assert rx.fifo_depth == 2
    feed(0x04)                      # transfers inhibited while OERR set
    assert rx.fifo_depth == 2
    assert rx.read() == (0x01, False)
    assert rx.read() == (0x02, False)
    feed(0x05)                      # still inhibited after draining
    assert rx.rcif is False
    rx.clear_overrun()              # CREN cycle
    feed(0x06)
    assert rx.read() == (0x06, False)


def test_c4e_cleared_stop_bit_sets_ferr():
    cfg = UsartConfig(fosc=4e6, spbrg=249)
    rx = UsartRx(cfg)
    bits = frame_encode(0x5A, None, cfg)
    bits[-1] = 0
    for level in bits_to_levels_x16([1] + bits + [1]):
        rx.sample(level)
    assert rx.read() == (0x5A, True)


def test_c5_modem_analytic_suite(baseline, tx_params, rx_params):
    # Single RC stage at its corner: 1/sqrt(2) within 1%.
    tone = np.sin(2 * np.pi * 20e3 * np.arange(5000) / 1e6)
    out = lfilter(*lowpass_coeffs(20e3, 1e6), tone)[2500:]
    assert math.sqrt(2) * np.sqrt(np.mean(out ** 2)) == pytest.approx(
        1 / math.sqrt(2), rel=0.01)

    # The line chain's envelope stage on a sustained unit carrier: 2/pi within 5%.
    chain = _LineChain(baseline.link, tx_params, rx_params, 0)
    tau_n = int(rx_params.envelope_tau * 1e6)
    env = chain.envelope(np.sin(2 * np.pi * 10e3 * np.arange(30 * tau_n) / 1e6))
    assert np.all(np.abs(env[5 * tau_n:] - 2 / np.pi) <= 0.05 * 2 / np.pi)

    # The drive stage, taken back onto the rail, reproduces vcc - ic*rc
    # exactly when on and vcc when off, on 100 random triples.
    rng = np.random.default_rng(1001)
    for _ in range(100):
        vcc = float(rng.uniform(1.0, 24.0))
        rc = float(rng.uniform(1.0, 1000.0))
        ic = float(rng.uniform(0.0, vcc / rc))
        p = replace(tx_params, vcc=vcc, rc_load=rc, ic_on=ic)
        chain = _LineChain(baseline.link, p, rx_params, 0)
        on, _ = chain.drive(np.array([1], dtype=np.uint8), 0)
        assert on[1] and vcc + chain.on_level == vcc - ic * rc  # carrier positive: switched on
        assert not on[0]                                         # sin(0) = 0: cut off, vcc

    # Noiseless loopback identity over every byte pattern, through run_line.
    for gap in (0.05, 0.10):
        link = replace(baseline.link, gap=gap, noise_rms=0.0)
        for value in range(256):
            bits = [(value >> i) & 1 for i in range(8)]
            mids, _ = run_line(bits, link, baseline.tx, baseline.rx, 0)
            assert mids.tolist() == bits, f"byte 0x{value:02X} corrupted at {gap} m"


def test_c6_telemetry_suite():
    rng = np.random.default_rng(77)

    # Encode/decode round trip on 1e4 random grid-aligned states.
    for _ in range(10_000):
        state = MotorState(
            temp_c=int(rng.integers(-32768, 32768)) / 100.0,
            speed_rpm=float(rng.integers(0, 65536)),
            voltage_v=int(rng.integers(0, 65536)) / 100.0,
            current_a=int(rng.integers(0, 65536)) / 1000.0,
        )
        faults = FaultSet(int(rng.integers(0, 0x40)))
        decoded = decode_frame(encode_frame(state, faults))
        assert decoded.state == MotorState(state.temp_c, state.speed_rpm,
                                           state.voltage_v, state.current_a)
        assert decoded.faults == faults

    # Corrupting any single byte of 1e3 random frames is rejected.
    for _ in range(1000):
        state = MotorState(int(rng.integers(-2000, 12000)) / 100.0,
                           float(rng.integers(0, 5000)),
                           int(rng.integers(15000, 26000)) / 100.0,
                           int(rng.integers(0, 6000)) / 1000.0)
        frame = encode_frame(state, FaultSet(int(rng.integers(0, 0x40))))
        for pos in range(len(frame)):
            corrupted = bytearray(frame)
            corrupted[pos] = (corrupted[pos] + int(rng.integers(1, 256))) % 256
            with pytest.raises(FrameError):
                decode_frame(bytes(corrupted))

    # Proximity pulse count equals the analytic crossing count.
    prox = ProximityParams(4e-3, 0.5e-3, 0.005e-3, rng_seed=3)
    fs = 2e4
    cycles = 6
    t = np.arange(int(cycles * fs)) / fs
    pulses = proximity_pulses(6e-3 + 3e-3 * np.sin(2 * np.pi * t), prox)
    rising = int(np.count_nonzero((pulses[1:] == 1) & (pulses[:-1] == 0)))
    assert rising == cycles

    # Tachometer within one quantum of ground truth.
    teeth, window = 4, 1.0
    for rpm_true in (450.0, 1450.0, 2875.5):
        edge_rate = rpm_true / 60.0 * teeth
        tt = np.arange(int(fs * window)) / fs
        train = ((tt * edge_rate) % 1.0 < 0.5).astype(np.uint8)
        rpm = speed_from_pulses(train, fs, teeth, window)
        assert abs(rpm - rpm_true) <= 60.0 / (teeth * window)

    # Fault classifier: at most one transition under +/-0.1% oscillation.
    th = Thresholds(80.0, 3000.0, 200.0, 260.0, 180.0, 6.0,
                    hysteresis_fraction=0.05)
    prev = FaultSet(0)
    transitions, was_set = 0, False
    for i in range(400):
        temp = 80.0 * (1.001 if i % 2 else 0.999)
        prev = classify_faults(MotorState(temp, 1450, 230, 1.5), th, prev)
        now = bool(prev.mask & FaultSet.OVERTEMP)
        transitions += int(now != was_set)
        was_set = now
    assert transitions <= 1


def test_c7_determinism_byte_identical_csv(baseline):
    cfg = with_settings(baseline, {"sim.duration_s": 2.0})
    _, traces_a = run_scenario(cfg)
    _, traces_b = run_scenario(cfg)
    assert emit_csv(traces_a) == emit_csv(traces_b)

    sweep_a = ber_sweep(baseline, "gap", [0.0, 0.05, 0.10], bits_per_point=1000)
    sweep_b = ber_sweep(baseline, "gap", [0.0, 0.05, 0.10], bits_per_point=1000)
    assert emit_csv(sweep_a) == emit_csv(sweep_b)
