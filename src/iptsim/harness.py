"""Scenario runner, BER/data-rate sweeps, and CSV emission.

Everything here is a pure function of (configuration, seeds): per-point and
per-frame random streams derive from the master seed through the splitmix
mixer, so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ScenarioConfig, _coerce, build_config, setting_key
from .seeds import derive_seed
from .simulate import IDLE_PREAMBLE_BITS, IDLE_TAIL_BITS, run_line
from .telemetry import (FaultSet, MotorState, POLL_FRAME_LEN, READING_FRAME_LEN,
                        classify_faults, encode_frame, encode_poll, render_display,
                        scan_frames, MSG_FAULT_ALARM, MSG_POLL, MSG_READING)
from .usart import UsartRx, UsartTx, actual_baud


class NoFeasibleRateError(RuntimeError):
    """No probed bit rate met the BER ceiling, or min_rate is above the carrier limit."""


@dataclass(frozen=True)
class TraceRecord:
    """One row of the scenario trace CSV."""

    time_s: float
    stage: str
    value: float
    unit: str


@dataclass(frozen=True)
class SweepResult:
    """Measured link quality at one sweep point."""

    var: float
    bits_sent: int
    bit_errors: int
    ber: float
    frames_sent: int
    frames_delivered: int


@dataclass(frozen=True)
class MaxRateResult:
    rate_bps: int
    resolution_bps: int


@dataclass
class ScenarioReport:
    """Summary of one scenario run."""

    duration_s: float
    sessions: int
    frames_sent: int
    frames_delivered: int
    bits_sent: int
    bit_errors: int
    ber: float
    fault_events: list[tuple[float, int]]
    display_line1: str
    display_line2: str
    spbrg: int
    actual_baud: float
    baud_error_pct: float


def frame_line_bits(frame_bytes: bytes, cfg: ScenarioConfig) -> np.ndarray:
    """Line bits of a UsartTx sending the frame back to back, padded with
    idle so the receiver settles."""
    ninth = 0 if cfg.usart.nine_bit else None
    tx = UsartTx(cfg.usart)
    bits: list[int] = [1] * IDLE_PREAMBLE_BITS
    for b in frame_bytes:
        while not tx.txif:
            bits.append(tx.tick())
        tx.load(b, ninth)
    while not (tx.txif and tx.trmt):
        bits.append(tx.tick())
    bits.extend([1] * IDLE_TAIL_BITS)
    return np.array(bits, dtype=np.uint8)


def _send(cfg: ScenarioConfig, frame_bytes: bytes,
          noise_seed: int) -> tuple[list, int, int]:
    """Send framed bytes through the full stack.

    Returns (decoded frames found in the received byte stream, payload line
    bits sent, payload bit errors at the modem decision points).
    """
    line_bits = frame_line_bits(frame_bytes, cfg)
    mids, received = run_line(line_bits, cfg.link, cfg.tx, cfg.rx, noise_seed,
                              usart_rx=UsartRx(cfg.usart))
    span = slice(IDLE_PREAMBLE_BITS, line_bits.size - IDLE_TAIL_BITS)
    errors = int(np.count_nonzero(mids[span] != line_bits[span]))
    payload = bytes(word & 0xFF for word, _ in received)
    return scan_frames(payload), span.stop - span.start, errors


def _script_lookup(cfg: ScenarioConfig, t: float) -> MotorState:
    current = cfg.script[0]
    for step in cfg.script:
        if step.time_s <= t:
            current = step
        else:
            break
    return MotorState(current.temp_c, current.speed_rpm,
                      current.voltage_v, current.current_a)


def session_airtime_s(cfg: ScenarioConfig) -> float:
    """Wire time of one poll/reply exchange including idle padding."""
    pad = IDLE_PREAMBLE_BITS + IDLE_TAIL_BITS
    poll_bits = POLL_FRAME_LEN * cfg.usart.frame_bits + pad
    reply_bits = READING_FRAME_LEN * cfg.usart.frame_bits + pad
    return (poll_bits + reply_bits) / cfg.tx.bit_rate


def _check_session_fits(cfg: ScenarioConfig) -> None:
    airtime = session_airtime_s(cfg)
    if airtime > cfg.poll_interval_s:
        raise ConfigError(
            f"sim.poll_interval_s: a poll/reply session takes {airtime:.3f}s at "
            f"{cfg.tx.bit_rate} bit/s, longer than the {cfg.poll_interval_s}s interval")


def run_scenario(cfg: ScenarioConfig) -> tuple[ScenarioReport, list[TraceRecord]]:
    """Simulate poll/reply sessions for the configured duration.

    The monitor polls on every poll interval; the acquisition side answers
    with a reading frame, or a fault-alarm frame whenever new fault bits
    appeared since the previous session.  The report carries delivery and
    bit-error totals plus the final rendered display.  A session that does
    not fit the poll interval is a ConfigError.
    """
    _check_session_fits(cfg)
    traces: list[TraceRecord] = []
    frames_sent = frames_delivered = 0
    bits_sent = bit_errors = 0
    fault_events: list[tuple[float, int]] = []
    prev_faults = FaultSet(0)
    shown_state: MotorState | None = None
    shown_faults = FaultSet(0)
    sessions = 0

    t = 0.0
    while t < cfg.duration_s:
        state = _script_lookup(cfg, t)
        faults = classify_faults(state, cfg.thresholds, prev_faults)
        new_bits = faults.mask & ~prev_faults.mask
        if faults.mask != prev_faults.mask:
            fault_events.append((t, faults.mask))
        traces.extend([
            TraceRecord(t, "temp", state.temp_c, "degC"),
            TraceRecord(t, "speed", state.speed_rpm, "RPM"),
            TraceRecord(t, "voltage", state.voltage_v, "V"),
            TraceRecord(t, "current", state.current_a, "A"),
            TraceRecord(t, "fault_mask", float(faults.mask), "bitmask"),
        ])

        frames_sent += 1
        found, nbits, nerr = _send(cfg, encode_poll(),
                                   derive_seed(cfg.master_seed, 2 * sessions))
        bits_sent += nbits
        bit_errors += nerr
        poll_ok = any(f.msg_type == MSG_POLL for f in found)
        traces.append(TraceRecord(t, "poll_delivered", float(poll_ok), "flag"))

        if poll_ok:
            msg_type = MSG_FAULT_ALARM if new_bits else MSG_READING
            reply = encode_frame(state, faults, msg_type)
            frames_sent += 1
            found, nbits, nerr = _send(cfg, reply,
                                       derive_seed(cfg.master_seed, 2 * sessions + 1))
            bits_sent += nbits
            bit_errors += nerr
            decoded = next((f for f in found if f.msg_type == msg_type), None)
            traces.append(TraceRecord(t, "reply_type", float(msg_type), "msg"))
            traces.append(TraceRecord(t, "reply_delivered",
                                      float(decoded is not None), "flag"))
            frames_delivered += 1  # the poll made it across
            if decoded is not None:
                frames_delivered += 1
                shown_state = decoded.state
                shown_faults = decoded.faults

        prev_faults = faults
        sessions += 1
        t = sessions * cfg.poll_interval_s

    if shown_state is None:
        line1 = line2 = " " * 16
    else:
        line1, line2 = render_display(shown_state, shown_faults)
    baud = actual_baud(cfg.usart)
    report = ScenarioReport(
        duration_s=cfg.duration_s,
        sessions=sessions,
        frames_sent=frames_sent,
        frames_delivered=frames_delivered,
        bits_sent=bits_sent,
        bit_errors=bit_errors,
        ber=bit_errors / bits_sent if bits_sent else 0.0,
        fault_events=fault_events,
        display_line1=line1,
        display_line2=line2,
        spbrg=cfg.usart.spbrg,
        actual_baud=baud,
        baud_error_pct=100.0 * (baud - cfg.tx.bit_rate) / cfg.tx.bit_rate,
    )
    return report, traces


def _point_config(cfg: ScenarioConfig, key: str, value) -> ScenarioConfig:
    """cfg with one setting changed and every value cfg derived held."""
    return build_config({**cfg.resolved, key: value}, cfg.script)


def _random_reading_frames(n_frames: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    out = bytearray()
    for _ in range(n_frames):
        state = MotorState(
            temp_c=int(rng.integers(-2000, 12001)) / 100.0,
            speed_rpm=float(rng.integers(0, 5001)),
            voltage_v=int(rng.integers(15000, 26001)) / 100.0,
            current_a=int(rng.integers(0, 6001)) / 1000.0,
        )
        out += encode_frame(state, FaultSet(0))
    return bytes(out)


def ber_sweep(cfg: ScenarioConfig, variable: str, values,
              bits_per_point: int = 10_000) -> list[SweepResult]:
    """Measure BER and frame delivery across a sweep of one setting.

    variable is a SETTINGS key or its name after the dot (config.setting_key),
    and each value is read by the key's type, as in a config file.  Every
    value is checked before any point runs; a value the key cannot take, or
    None, is a ConfigError naming the key.  Each point holds every value cfg
    derived, sends back-to-back random reading frames through the full stack
    and gets its own derived seed, so results are reproducible and
    independent of evaluation order.
    """
    key = setting_key(variable)
    values = [_coerce(key, value) for value in values]
    if None in values:
        raise ConfigError(f"{key}: a sweep value cannot be None")
    if not values:
        raise ValueError("sweep needs at least one value")
    if bits_per_point < 1000:
        raise ValueError("bits_per_point must be at least 1000")
    bits_per_frame = READING_FRAME_LEN * cfg.usart.frame_bits
    n_frames = math.ceil(bits_per_point / bits_per_frame)
    results = []
    for index, value in enumerate(values):
        seed = derive_seed(cfg.master_seed, index)
        payload = _random_reading_frames(n_frames, derive_seed(seed, 1))
        point = _point_config(cfg, key, value)
        found, bits, errors = _send(point, payload, derive_seed(seed, 2))
        delivered = sum(1 for f in found if f.msg_type in (MSG_READING, MSG_FAULT_ALARM))
        results.append(SweepResult(
            var=float(value), bits_sent=bits, bit_errors=errors,
            ber=errors / bits, frames_sent=n_frames, frames_delivered=min(delivered, n_frames)))
    return results


def _error_budget(ber_ceiling: float, bits: int) -> int:
    """Most bit errors in `bits` bits that keep the BER at or below the ceiling.

    The largest e with e / bits <= ber_ceiling, by that same float
    comparison: floor(ber_ceiling * bits) can land one off, since 0.29 * 100
    is 28.999999999999996 while 29 / 100 <= 0.29.
    """
    budget = math.floor(ber_ceiling * bits)
    while budget / bits > ber_ceiling:
        budget -= 1
    while (budget + 1) / bits <= ber_ceiling:
        budget += 1
    return budget


def _probe_passes(cfg: ScenarioConfig, rate: int, bits_per_probe: int,
                  max_errors: int) -> bool:
    """Random-bit modem loopback at one bit rate: at most max_errors bit errors?"""
    seed = derive_seed(cfg.master_seed, rate)
    rng = np.random.default_rng(derive_seed(seed, 1))
    line_bits = rng.integers(0, 2, bits_per_probe).astype(np.uint8)
    pcfg = _point_config(cfg, "tx.bit_rate", rate)
    mids, _ = run_line(line_bits, pcfg.link, pcfg.tx, pcfg.rx, derive_seed(seed, 2),
                       max_errors=max_errors)
    return int(np.count_nonzero(mids != line_bits[:mids.size])) <= max_errors


def max_data_rate(cfg: ScenarioConfig, ber_ceiling: float,
                  bits_per_probe: int = 2000, min_rate: int = 50) -> MaxRateResult:
    """Largest bit rate whose measured BER stays at or below the ceiling.

    Binary search over integer bit rates between min_rate and the carrier
    limit (carrier must stay at least 10x the bit rate).  A probe of
    bits_per_probe random bits passes with at most
    _error_budget(ber_ceiling, bits_per_probe) errors.  It stops at the end of
    the chunk that exceeds that budget, since it has then failed whatever the
    rest would show, so the answer is that of probes run to the end.  The
    carrier limit is probed first, then the bisection runs from min_rate
    without probing it: as the bisection assumes, BER rises with rate, so a
    pass at any faster rate implies that min_rate passes.  min_rate is
    probed last, and only when no other probe passed; NoFeasibleRateError
    means that no probed rate met the ceiling.  No rate is probed twice.  The
    reported resolution is the unexplored interval left when the search
    stopped.
    """
    if not 0 < ber_ceiling < 1:
        raise ValueError("ber_ceiling must be in (0, 1)")
    if bits_per_probe < 1:
        raise ValueError(f"bits_per_probe must be at least 1, got {bits_per_probe}")
    if min_rate < 1:
        raise ValueError(f"min_rate must be at least 1 bit/s, got {min_rate}")
    budget = _error_budget(ber_ceiling, bits_per_probe)
    hi = int(cfg.tx.carrier_freq // 10)
    lo = lowest = int(min_rate)
    if lo > hi:
        raise NoFeasibleRateError(f"minimum rate {lo} exceeds the carrier limit {hi}")
    if _probe_passes(cfg, hi, bits_per_probe, budget):
        return MaxRateResult(hi, 0)
    # invariant: hi infeasible; lo feasible, or still the unprobed min_rate
    while hi - lo > max(1, int(0.02 * lo)):
        mid = (lo + hi) // 2
        if _probe_passes(cfg, mid, bits_per_probe, budget):
            lo = mid
        else:
            hi = mid
    # Every passing probe moved lo above min_rate, and hi stays above it
    # unless min_rate is the carrier limit, already probed.
    if lo == lowest and (lo == hi or not _probe_passes(cfg, lo, bits_per_probe, budget)):
        raise NoFeasibleRateError(
            f"BER exceeds {ber_ceiling} at every probed rate, down to {lo} bit/s")
    return MaxRateResult(lo, hi - lo)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


TRACE_HEADER = "time_s,stage,value,unit"
SWEEP_HEADER = "var,bits,errors,ber,frames_sent,frames_delivered"


def emit_csv(records) -> str:
    """Render trace records or sweep results as CSV text.

    The record type decides the layout, and an empty list emits the trace
    header alone.  Column order is fixed; floats use nine significant digits;
    lines end with LF.
    """
    records = list(records)
    if not records or isinstance(records[0], TraceRecord):
        lines = [TRACE_HEADER]
        for r in records:
            lines.append(f"{_fmt(r.time_s)},{r.stage},{_fmt(r.value)},{r.unit}")
    elif isinstance(records[0], SweepResult):
        lines = [SWEEP_HEADER]
        for r in records:
            lines.append(f"{_fmt(r.var)},{r.bits_sent},{r.bit_errors},"
                         f"{_fmt(r.ber)},{r.frames_sent},{r.frames_delivered}")
    else:
        raise TypeError(f"cannot infer CSV layout for {type(records[0]).__name__}")
    return "\n".join(lines) + "\n"
