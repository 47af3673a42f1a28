"""Scenario configuration: line-based text format, defaults, and derivation.

Files use `section.key = value` lines with `#` comments.  Units are
canonical SI throughout: Hz, m, V, A, s.  Scripted readings use
`script.N = <time_s> <temp_c> <speed_rpm> <voltage_v> <current_a>`.

Receiver settings the file omits are derived from the rest of the
configuration: the noise-filter corner from the carrier, the envelope time
constant from carrier and filter order, the comparator threshold from the
link budget at sim.calibration_gap, and the channel noise from sim.snr_db.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

from .channel import CoilPair, LinkParams
from .modem import RxParams, TxParams
from .simulate import (IDLE_PREAMBLE_BITS, IDLE_TAIL_BITS, calibrate_threshold,
                       derived_envelope_tau, derived_hf_cutoff, noise_rms_for_snr)
from .telemetry import POLL_FRAME_LEN, READING_FRAME_LEN, Thresholds
from .usart import UsartConfig, nearest_spbrg


class ConfigError(ValueError):
    """Configuration problem, reported with the offending key."""


@dataclass(frozen=True)
class ScriptStep:
    """One scripted acquisition instant."""

    time_s: float
    temp_c: float
    speed_rpm: float
    voltage_v: float
    current_a: float


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: every tunable pinned to a concrete value."""

    link: LinkParams
    tx: TxParams
    rx: RxParams
    usart: UsartConfig
    thresholds: Thresholds
    script: tuple[ScriptStep, ...]
    duration_s: float
    filter_order: int
    q_factor: float = 10.0
    poll_interval_s: float = 1.0
    master_seed: int = 1
    calibration_gap: float = 0.10
    snr_db: float | None = None

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ConfigError("sim.duration_s must be positive")
        if self.filter_order not in (1, 2, 3):
            raise ConfigError("sim.filter_order must be 1, 2, or 3")
        if self.q_factor <= 0:
            raise ConfigError("sim.q_factor must be positive")
        if self.poll_interval_s <= 0:
            raise ConfigError("sim.poll_interval_s must be positive")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError("sim.master_seed must be in 0..2**64-1")
        times = [s.time_s for s in self.script]
        if not self.script or times != sorted(set(times)):
            raise ConfigError("script timestamps must be strictly increasing")


_FLOAT_KEYS = {
    "link.l_primary", "link.l_secondary", "link.c_tank", "link.k0",
    "link.decay_length", "link.gap", "link.noise_rms",
    "tx.carrier_freq", "tx.sample_rate", "tx.bit_rate", "tx.vcc",
    "tx.rc_load", "tx.ic_on",
    "rx.hf_cutoff", "rx.envelope_tau", "rx.threshold", "rx.v_logic_high",
    "usart.fosc",
    "thresholds.temp_max_c", "thresholds.speed_max_rpm",
    "thresholds.speed_min_rpm", "thresholds.volt_max_v",
    "thresholds.volt_min_v", "thresholds.curr_max_a",
    "thresholds.hysteresis_fraction",
    "sim.duration_s", "sim.q_factor", "sim.poll_interval_s",
    "sim.snr_db", "sim.calibration_gap",
}
_INT_KEYS = {"sim.filter_order", "sim.master_seed", "usart.spbrg"}
_BOOL_KEYS = {"usart.brgh", "usart.nine_bit"}

DEFAULTS: dict[str, object] = {
    "link.l_primary": 1e-3,
    "link.l_secondary": 1e-3,
    "link.c_tank": 2.5330296e-7,  # resonates a 1 mH pickup at 10 kHz
    "link.k0": 0.6,
    "link.decay_length": 0.04,
    "link.gap": 0.05,
    "link.noise_rms": None,
    "tx.carrier_freq": 10e3,
    "tx.sample_rate": 1e6,
    "tx.bit_rate": 250.0,
    "tx.vcc": 12.0,
    "tx.rc_load": 100.0,
    "tx.ic_on": 0.1,
    "rx.hf_cutoff": None,
    "rx.envelope_tau": None,
    "rx.threshold": None,
    "rx.v_logic_high": 5.0,
    "usart.fosc": 4e6,
    "usart.spbrg": None,
    "usart.brgh": False,
    "usart.nine_bit": False,
    "thresholds.temp_max_c": 80.0,
    "thresholds.speed_max_rpm": 3000.0,
    "thresholds.speed_min_rpm": 200.0,
    "thresholds.volt_max_v": 260.0,
    "thresholds.volt_min_v": 180.0,
    "thresholds.curr_max_a": 6.0,
    "thresholds.hysteresis_fraction": 0.05,
    "sim.duration_s": 10.0,
    "sim.filter_order": 1,
    "sim.q_factor": 10.0,
    "sim.poll_interval_s": 1.0,
    "sim.master_seed": 1234567,
    "sim.snr_db": 20.0,
    "sim.calibration_gap": 0.10,
}

_DEFAULT_SCRIPT = (ScriptStep(0.0, 25.0, 1450.0, 230.0, 1.5),)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError("not a boolean")
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc
    raise ConfigError(f"unknown configuration key {key!r}")


def _parse_script_step(key: str, raw: str) -> ScriptStep:
    parts = raw.split()
    if len(parts) != 5:
        raise ConfigError(
            f"{key}: expected '<time_s> <temp_c> <speed_rpm> <voltage_v> <current_a>'")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return ScriptStep(*vals)


def parse_config_text(text: str) -> tuple[dict[str, object], list[ScriptStep]]:
    """Parse config text into a flat key/value map plus the script steps."""
    values: dict[str, object] = {}
    script: list[tuple[int, ScriptStep]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key.startswith("script."):
            try:
                index = int(key.split(".", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad script index in {key!r}") from exc
            script.append((index, _parse_script_step(key, raw)))
        else:
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = _parse_value(key, raw)
    steps = [step for _, step in sorted(script, key=lambda item: item[0])]
    return values, steps


def build_config(values: dict[str, object] | None = None,
                 script: list[ScriptStep] | None = None) -> ScenarioConfig:
    """Assemble a resolved ScenarioConfig from key/value overrides."""
    merged = dict(DEFAULTS)
    if values:
        for key in values:
            if key not in DEFAULTS:
                raise ConfigError(f"unknown configuration key {key!r}")
        merged.update(values)
    _check_finite(merged, script or ())

    def need(key):
        v = merged[key]
        if v is None:
            raise ConfigError(f"{key} is required")
        return v

    try:
        coils = CoilPair(
            l_primary=need("link.l_primary"),
            l_secondary=need("link.l_secondary"),
            c_tank=need("link.c_tank"),
            k0=need("link.k0"),
            decay_length=need("link.decay_length"),
        )
        tx = TxParams(
            carrier_freq=need("tx.carrier_freq"),
            sample_rate=need("tx.sample_rate"),
            bit_rate=need("tx.bit_rate"),
            vcc=need("tx.vcc"),
            rc_load=need("tx.rc_load"),
            ic_on=need("tx.ic_on"),
        )
        thresholds = Thresholds(
            temp_max_c=need("thresholds.temp_max_c"),
            speed_max_rpm=need("thresholds.speed_max_rpm"),
            speed_min_rpm=need("thresholds.speed_min_rpm"),
            volt_max_v=need("thresholds.volt_max_v"),
            volt_min_v=need("thresholds.volt_min_v"),
            curr_max_a=need("thresholds.curr_max_a"),
            hysteresis_fraction=need("thresholds.hysteresis_fraction"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    filter_order = need("sim.filter_order")
    if filter_order not in (1, 2, 3):
        raise ConfigError("sim.filter_order must be 1, 2, or 3")
    q_factor = need("sim.q_factor")
    calibration_gap = need("sim.calibration_gap")

    quiet_link = LinkParams(coils=coils, gap=need("link.gap"))

    # Explicit noise pins the channel; snr_db is only kept when it is the
    # source of the noise figure (variants re-derive from it).
    noise_rms = merged["link.noise_rms"]
    snr_db = merged["sim.snr_db"] if noise_rms is None else None
    if noise_rms is None:
        noise_rms = (noise_rms_for_snr(quiet_link, tx, q_factor, snr_db)
                     if snr_db is not None else 0.0)

    hf_cutoff = merged["rx.hf_cutoff"]
    if hf_cutoff is None:
        hf_cutoff = derived_hf_cutoff(tx.carrier_freq)
    envelope_tau = merged["rx.envelope_tau"]
    if envelope_tau is None:
        envelope_tau = derived_envelope_tau(tx.carrier_freq, filter_order)
    threshold = merged["rx.threshold"]
    if threshold is None:
        threshold = calibrate_threshold(quiet_link, tx, q_factor, calibration_gap)

    try:
        rx = RxParams(
            hf_cutoff=hf_cutoff,
            envelope_tau=envelope_tau,
            threshold=threshold,
            v_logic_high=need("rx.v_logic_high"),
            envelope_order=filter_order,
        )
        spbrg = merged["usart.spbrg"]
        if spbrg is None:
            spbrg = nearest_spbrg(need("usart.fosc"), tx.bit_rate,
                                  brgh=merged["usart.brgh"]).spbrg
        usart = UsartConfig(
            fosc=need("usart.fosc"),
            spbrg=spbrg,
            brgh=merged["usart.brgh"],
            nine_bit=merged["usart.nine_bit"],
        )
        link = LinkParams(coils=coils, gap=need("link.gap"),
                          noise_rms=noise_rms)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    cfg = ScenarioConfig(
        link=link,
        tx=tx,
        rx=rx,
        usart=usart,
        thresholds=thresholds,
        script=tuple(script) if script else _DEFAULT_SCRIPT,
        duration_s=need("sim.duration_s"),
        filter_order=filter_order,
        q_factor=q_factor,
        poll_interval_s=need("sim.poll_interval_s"),
        master_seed=need("sim.master_seed"),
        calibration_gap=calibration_gap,
        snr_db=snr_db,
    )
    _check_session_fits(cfg)
    return cfg


def _check_finite(merged: dict[str, object], script) -> None:
    # NaN passes every ordered comparison the parameter checks make, so it
    # and infinity are stopped here, before any value is used.
    for key in sorted(_FLOAT_KEYS):
        value = merged[key]
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    for step in script:
        if not all(map(math.isfinite, astuple(step))):
            raise ConfigError(f"script values must be finite, got {astuple(step)}")


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


def load_config(path: str | None = None) -> ScenarioConfig:
    """Load a config file (or the built-in baseline when path is None)."""
    if path is None:
        return build_config()
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    values, script = parse_config_text(text)
    return build_config(values, script)


def with_filter_order(cfg: ScenarioConfig, order: int) -> ScenarioConfig:
    """Baseline variant with a different smoothing-cascade order.

    Re-derives the envelope time constant for the new order; everything
    else, including the calibrated threshold, is kept.
    """
    cfg = replace(cfg, filter_order=order)  # rejects an order outside 1..3
    rx = replace(cfg.rx,
                 envelope_tau=derived_envelope_tau(cfg.tx.carrier_freq, order),
                 envelope_order=order)
    return replace(cfg, rx=rx)


def with_carrier(cfg: ScenarioConfig, carrier_freq: float) -> ScenarioConfig:
    """Baseline variant at a different carrier frequency.

    The pickup tank is retuned to resonate at the new carrier (the drive
    must sit at tank resonance), the receiver corner and time constant are
    re-derived, and the threshold and SNR-referenced noise are recalibrated.
    """
    coils = replace(cfg.link.coils,
                    c_tank=1.0 / ((2.0 * math.pi * carrier_freq) ** 2
                                  * cfg.link.coils.l_secondary))
    quiet = LinkParams(coils=coils, gap=cfg.link.gap)
    tx = replace(cfg.tx, carrier_freq=carrier_freq)
    rx = replace(cfg.rx,
                 hf_cutoff=derived_hf_cutoff(carrier_freq),
                 envelope_tau=derived_envelope_tau(carrier_freq, cfg.filter_order),
                 threshold=calibrate_threshold(quiet, tx, cfg.q_factor,
                                               cfg.calibration_gap))
    noise = cfg.link.noise_rms
    if cfg.snr_db is not None:
        noise = noise_rms_for_snr(quiet, tx, cfg.q_factor, cfg.snr_db)
    link = replace(cfg.link, coils=coils, noise_rms=noise)
    return replace(cfg, link=link, tx=tx, rx=rx)
