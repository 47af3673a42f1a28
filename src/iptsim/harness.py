"""Scenario runner, BER/data-rate sweeps, and CSV emission.

Everything here is a pure function of (configuration, seeds): per-point and
per-frame random streams derive from the master seed through the splitmix
mixer, so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .config import ConfigError, ScenarioConfig, _coerce, build_config, setting_key
from .modem import CARRIER_CYCLES_PER_BIT
from .seeds import derive_seed
from .simulate import run_line
from .telemetry import (DecodedFrame, FaultSet, MotorState, POLL_FRAME_LEN, READING_FIELDS,
                        READING_FRAME_LEN, classify_faults, encode_frame, encode_poll,
                        render_display, scan_frames, MSG_FAULT_ALARM, MSG_POLL, MSG_READING)
from .usart import UsartRx, UsartTx, actual_baud

IDLE_PREAMBLE_BITS = 12
IDLE_TAIL_BITS = 4


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
    """Outcome of max_data_rate: rate_bps is the highest rate that passed, and
    resolution_bps the gap up to the lowest rate that failed, 0 when the
    carrier limit itself passed."""

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
    while not tx.trmt:
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


def session_airtime_s(cfg: ScenarioConfig) -> float:
    """Wire time of one poll/reply exchange including idle padding."""
    pad = IDLE_PREAMBLE_BITS + IDLE_TAIL_BITS
    poll_bits = POLL_FRAME_LEN * cfg.usart.frame_bits + pad
    reply_bits = READING_FRAME_LEN * cfg.usart.frame_bits + pad
    return (poll_bits + reply_bits) / cfg.tx.bit_rate


def run_scenario(cfg: ScenarioConfig) -> tuple[ScenarioReport, list[TraceRecord]]:
    """Simulate poll/reply sessions for the configured duration.

    The monitor polls on every poll interval; the acquisition side answers
    with a reading frame, or a fault-alarm frame whenever new fault bits
    appeared since the previous session.  The report carries delivery and
    bit-error totals plus the final rendered display.  A session that does
    not fit the poll interval is a ConfigError.
    """
    airtime = session_airtime_s(cfg)
    if airtime > cfg.poll_interval_s:
        raise ConfigError(
            f"sim.poll_interval_s: a poll/reply session takes {airtime:.3f}s at "
            f"{cfg.tx.bit_rate} bit/s, longer than the {cfg.poll_interval_s}s interval")
    traces: list[TraceRecord] = []
    sent: list[tuple[int, int, bool]] = []  # (payload bits, bit errors, decoded) per frame
    fault_events: list[tuple[float, int]] = []
    faults = FaultSet(0)
    shown: DecodedFrame | None = None
    sessions = 0

    def exchange(frame: bytes, msg_type: int, stream: int) -> DecodedFrame | None:
        """Send a frame on its seed stream and record it: the decoded msg_type frame, or None."""
        found, nbits, nerr = _send(cfg, frame, derive_seed(cfg.master_seed, stream))
        decoded = next((f for f in found if f.msg_type == msg_type), None)
        sent.append((nbits, nerr, decoded is not None))
        return decoded

    t = 0.0
    while t < cfg.duration_s:
        # The script starts at or before 0 s, so some step is at or before t.
        state = cfg.script[bisect_right(cfg.script, t, key=attrgetter("time_s")) - 1].state
        prev = faults
        faults = classify_faults(state, cfg.thresholds, prev)
        new_bits = faults.mask & ~prev.mask
        if faults.mask != prev.mask:
            fault_events.append((t, faults.mask))
        traces.extend([
            TraceRecord(t, "temp", state.temp_c, "degC"),
            TraceRecord(t, "speed", state.speed_rpm, "RPM"),
            TraceRecord(t, "voltage", state.voltage_v, "V"),
            TraceRecord(t, "current", state.current_a, "A"),
            TraceRecord(t, "fault_mask", float(faults.mask), "bitmask"),
        ])

        poll = exchange(encode_poll(), MSG_POLL, 2 * sessions)
        traces.append(TraceRecord(t, "poll_delivered", float(poll is not None), "flag"))
        if poll is not None:
            msg_type = MSG_FAULT_ALARM if new_bits else MSG_READING
            reply = exchange(encode_frame(state, faults, msg_type), msg_type, 2 * sessions + 1)
            traces.append(TraceRecord(t, "reply_type", float(msg_type), "msg"))
            traces.append(TraceRecord(t, "reply_delivered", float(reply is not None), "flag"))
            if reply is not None:
                shown = reply

        sessions += 1
        t = sessions * cfg.poll_interval_s

    if shown is None:
        line1 = line2 = " " * 16
    else:
        line1, line2 = render_display(shown.state, shown.faults)
    # duration_s > 0, so there is at least one poll, and it carries payload bits.
    bits_sent = sum(nbits for nbits, _, _ in sent)
    bit_errors = sum(nerr for _, nerr, _ in sent)
    baud = actual_baud(cfg.usart)
    report = ScenarioReport(
        duration_s=cfg.duration_s,
        sessions=sessions,
        frames_sent=len(sent),
        frames_delivered=sum(decoded for _, _, decoded in sent),
        bits_sent=bits_sent,
        bit_errors=bit_errors,
        ber=bit_errors / bits_sent,
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
    # Wire values in READING_FIELDS order: -20..120 degC, 0..5000 RPM, 150..260 V, 0..6 A.
    draws = list(zip(READING_FIELDS, ((-2000, 12001), (0, 5001), (15000, 26001), (0, 6001))))
    out = bytearray()
    for _ in range(n_frames):
        state = MotorState(**{name: int(rng.integers(lo, hi)) / scale
                              for (name, _, scale, _), (lo, hi) in draws})
        out += encode_frame(state, FaultSet(0))
    return bytes(out)


def ber_sweep(cfg: ScenarioConfig, variable: str, values,
              bits_per_point: int = 10_000) -> list[SweepResult]:
    """Measure BER and frame delivery across a sweep of one setting.

    variable is a SETTINGS key or its name after the dot (config.setting_key),
    and each value is read by the key's type, as in a config file.  A sim.*
    or thresholds.* key would change nothing, so it is a ConfigError.  Every
    value is checked before any point runs; a value the key cannot take, or
    None, is a ConfigError naming the key.  Each point holds every value cfg
    derived, sends back-to-back random reading frames through the full stack
    and gets its own derived seed, so results are reproducible and
    independent of evaluation order.
    """
    key = setting_key(variable)
    if key.startswith(("sim.", "thresholds.")):
        raise ConfigError(f"{key}: cannot be swept; a point holds the values the base "
                          "derived, seeds from the base and runs no scenario")
    values = [_coerce(key, value) for value in values]
    if None in values:
        raise ConfigError(f"{key}: a sweep value cannot be None")
    if not values:
        raise ValueError("sweep needs at least one value")
    if bits_per_point < 1000:
        raise ValueError("bits_per_point must be at least 1000")
    points = [_point_config(cfg, key, value) for value in values]
    bits_per_frame = READING_FRAME_LEN * cfg.usart.frame_bits
    n_frames = math.ceil(bits_per_point / bits_per_frame)
    results = []
    for index, (value, point) in enumerate(zip(values, points)):
        seed = derive_seed(cfg.master_seed, index)
        payload = _random_reading_frames(n_frames, derive_seed(seed, 1))
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
    limit, carrier_freq // CARRIER_CYCLES_PER_BIT.  A probe of
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
    hi = int(cfg.tx.carrier_freq // CARRIER_CYCLES_PER_BIT)
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


CSV_HEADERS = {TraceRecord: "time_s,stage,value,unit",
               SweepResult: "var,bits,errors,ber,frames_sent,frames_delivered"}


def emit_csv(records) -> str:
    """Render trace records or sweep results as CSV text.

    The record type picks the header, and an empty list emits the trace
    header alone.  A row is the record's dataclass fields in order, each
    through _fmt: floats use nine significant digits.  Lines end with LF.
    """
    records = list(records)
    kind = type(records[0]) if records else TraceRecord
    if kind not in CSV_HEADERS:
        raise TypeError(f"cannot infer CSV layout for {kind.__name__}")
    row = attrgetter(*(f.name for f in fields(kind)))
    lines = [CSV_HEADERS[kind]] + [",".join(map(_fmt, row(r))) for r in records]
    return "\n".join(lines) + "\n"
