import math

import numpy as np
import pytest
from scipy.signal import lfilter

from iptsim.channel import voltage_gain
from iptsim.config import build_config
from iptsim.modem import HYSTERESIS_FRACTION, RxParams, TxParams


def bits_to_levels_x16(bits) -> list[int]:
    """Expand bit-period levels onto the USART receiver's x16 sample grid."""
    out: list[int] = []
    for b in bits:
        out.extend([1 if b else 0] * 16)
    return out


def reference_rx_words(levels, data_bits) -> list[tuple[int, bool]]:
    """(word, ferr) of each frame in an x16 level stream: the oracle for UsartRx.

    A plain scan by the datasheet's x16 rule, written independently of
    iptsim.usart: a falling edge e (levels[e-1] high, levels[e] low) starts a
    frame unless levels[e+8] is high (a glitch; hunting resumes at e+9).  Data
    bit k is levels[e+8+16(k+1)] and STOP is levels[e+8+16(data_bits+1)], low
    meaning FERR; hunting resumes after STOP.  A frame cut off by the end of
    the stream gives no word.
    """
    words = []
    e = 1
    while e + 8 < len(levels):
        if not (levels[e - 1] == 1 and levels[e] == 0):
            e += 1
        elif levels[e + 8]:
            e += 9
        else:
            stop = e + 8 + 16 * (data_bits + 1)
            if stop >= len(levels):
                break
            word = sum(levels[e + 8 + 16 * (k + 1)] << k for k in range(data_bits))
            words.append((word, levels[stop] == 0))
            e = stop + 1
    return words


def reference_logic(bits, cfg, noise_seed) -> np.ndarray:
    """Whole-array logic waveform of the link: the oracle for the line chain.

    Written out from the circuit, independently of iptsim.simulate: collector
    swing minus the rail, link gain and noise, two HF RC sections, rectifier,
    envelope_order smoothing sections and a sample-by-sample comparator.
    """
    tx, rx, fs = cfg.tx, cfg.rx, cfg.tx.sample_rate
    edges = np.rint(np.arange(len(bits) + 1) * (fs / tx.bit_rate)).astype(np.int64)
    carrier = np.sin(2.0 * np.pi * tx.carrier_freq / fs * np.arange(edges[-1]))
    gated = np.repeat(np.asarray(bits, dtype=bool), np.diff(edges)) & (carrier > 0.0)
    collector = np.where(gated, tx.vcc - tx.ic_on * tx.rc_load, tx.vcc)
    y = voltage_gain(cfg.link, tx.carrier_freq) * (collector - tx.vcc)
    if cfg.link.noise_rms > 0:
        y = y + np.random.default_rng(noise_seed).normal(0.0, cfg.link.noise_rms, y.size)
    a_hf = math.exp(-2.0 * math.pi * rx.hf_cutoff / fs)
    for _ in range(2):
        y = lfilter([1.0 - a_hf], [1.0, -a_hf], y)
    y = np.abs(y)
    a_env = math.exp(-1.0 / (rx.envelope_tau * fs))
    for _ in range(rx.envelope_order):
        y = lfilter([1.0 - a_env], [1.0, -a_env], y)
    out, _ = reference_compare(y, rx.threshold * (1.0 + HYSTERESIS_FRACTION),
                               rx.threshold * (1.0 - HYSTERESIS_FRACTION))
    return out


def reference_compare(x, high, low, initial=False) -> tuple[np.ndarray, bool]:
    """Sample-by-sample hysteresis comparator: on above high, off below low."""
    state, out = initial, []
    for value in np.asarray(x, dtype=float).tolist():
        if value > high:
            state = True
        elif value < low:
            state = False
        out.append(state)
    return np.array(out, dtype=bool), state


def reference_mids(bits, cfg, noise_seed) -> np.ndarray:
    """Oracle logic level at each bit midpoint, as run_line reports it."""
    logic = reference_logic(bits, cfg, noise_seed)
    spb = cfg.tx.sample_rate / cfg.tx.bit_rate
    return logic[np.rint((np.arange(len(bits)) + 0.5) * spb).astype(np.int64)].astype(np.uint8)


@pytest.fixture(scope="session")
def baseline_cfg():
    """Fully resolved built-in baseline scenario."""
    return build_config()


@pytest.fixture()
def tx_params():
    return TxParams(carrier_freq=10e3, sample_rate=1e6, bit_rate=250,
                    vcc=12.0, rc_load=100.0, ic_on=0.1)


@pytest.fixture()
def rx_params():
    # Threshold at 30% of the settled unit-carrier envelope (2/pi).
    return RxParams(hf_cutoff=20e3, envelope_tau=400e-6,
                    threshold=0.3 * 2 / 3.141592653589793)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in rep.nodeid and rep.when == "call":
                name = rep.nodeid.split("::")[-1]
                lines.append((name, label))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, label in sorted(lines):
            terminalreporter.write_line(f"{label}  {name}")
