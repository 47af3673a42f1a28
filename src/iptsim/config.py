"""Scenario configuration: line-based text format, defaults, and derivation.

Files use `section.key = value` lines with `#` comments.  Units are
canonical SI throughout: Hz, m, V, A, s.  Scripted readings use
`script.N = <time_s> <temp_c> <speed_rpm> <voltage_v> <current_a>`, checked
as they are read, each reading against its frame's wire fields too; the
first starts at or before 0 s.

SETTINGS names every key, its type and its default.  A key's section and
name say where it goes: build_config fills each section's one parameter
object from its `section.<field>` settings, and the only keys that name no
field are the rule inputs sim.snr_db and sim.calibration_gap.  A setting
has that one name everywhere, in a file, in a dict of overrides, and as the
variable of a sweep (setting_key also accepts the part after the dot).

Settings the file omits are derived from the rest of the configuration by
the rules here: the pickup tank capacitor tuned to resonate link.l_secondary
at the carrier, the noise-filter corner from the carrier, the envelope time
constant from carrier and rx.envelope_order, the comparator threshold from
the link budget at sim.calibration_gap, the channel noise from sim.snr_db,
and SPBRG from tx.bit_rate.  build_config is the only place they run, and it
keeps the map they resolved to.  with_settings re-resolves a variant through
it, so a value the caller set stays set and the derived ones are derived
again; a sweep point or rate probe instead starts from the resolved map, so
it holds every value the base derived, the tank included.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

from .channel import LinkParams, tuned_c_tank, voltage_gain
from .modem import RxParams, TxParams
from .telemetry import FaultSet, MotorState, Thresholds, encode_frame
from .usart import SpbrgRangeError, UsartConfig, brg_divisor


class ConfigError(ValueError):
    """Configuration problem, reported with the offending key."""


@dataclass(frozen=True)
class ScriptStep:
    """The reading the acquisition module takes from time_s on."""

    time_s: float
    state: MotorState

    def __post_init__(self):
        if not math.isfinite(self.time_s):
            raise ValueError(f"time_s must be finite, got {self.time_s}")
        encode_frame(self.state, FaultSet(0))  # FrameRangeError unless a frame carries it


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: every tunable pinned to a concrete value.

    settings is the merged key/value map the scenario was resolved from,
    with derived keys left None; with_settings re-resolves from it.
    resolved is the same map with every derived key filled in, the values
    the scenario runs with.  Variants come from with_settings: a
    dataclasses.replace copy keeps the old maps, so re-resolving it undoes
    the change.
    """

    link: LinkParams
    tx: TxParams
    rx: RxParams
    usart: UsartConfig
    thresholds: Thresholds
    script: tuple[ScriptStep, ...]
    duration_s: float
    poll_interval_s: float
    master_seed: int
    settings: dict[str, object] = field(compare=False, repr=False)
    resolved: dict[str, object] = field(compare=False, repr=False)

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ConfigError("sim.duration_s must be positive")
        if self.poll_interval_s <= 0:
            raise ConfigError("sim.poll_interval_s must be positive")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError("sim.master_seed must be in 0..2**64-1")
        times = [s.time_s for s in self.script]
        if not self.script or times != sorted(set(times)):
            raise ConfigError("script timestamps must be strictly increasing")
        if times[0] > 0:
            raise ConfigError(f"script must start at or before 0 s, first step at {times[0]} s")


# Every configuration key with its type and default.  A key section.name fills
# field name of that section's parameter object, or is a rule input.  A None
# default marks a key that build_config derives from the others, by its rule
# in _DERIVED, unless it is set.
SETTINGS: dict[str, tuple[type, object]] = {
    "link.l_primary": (float, 1e-3),
    "link.l_secondary": (float, 1e-3),
    "link.c_tank": (float, None),
    "link.k0": (float, 0.6),
    "link.decay_length": (float, 0.04),
    "link.q_factor": (float, 10.0),
    "link.gap": (float, 0.05),
    "link.noise_rms": (float, None),
    "tx.carrier_freq": (float, 10e3),
    "tx.sample_rate": (float, 1e6),
    "tx.bit_rate": (float, 250.0),
    "tx.vcc": (float, 12.0),
    "tx.rc_load": (float, 100.0),
    "tx.ic_on": (float, 0.1),
    "rx.hf_cutoff": (float, None),
    "rx.envelope_tau": (float, None),
    "rx.threshold": (float, None),
    "rx.envelope_order": (int, 1),
    "usart.fosc": (float, 4e6),
    "usart.spbrg": (int, None),
    "usart.brgh": (bool, False),
    "usart.nine_bit": (bool, False),
    "thresholds.temp_max_c": (float, 80.0),
    "thresholds.speed_max_rpm": (float, 3000.0),
    "thresholds.speed_min_rpm": (float, 200.0),
    "thresholds.volt_max_v": (float, 260.0),
    "thresholds.volt_min_v": (float, 180.0),
    "thresholds.curr_max_a": (float, 6.0),
    "thresholds.hysteresis_fraction": (float, 0.05),
    "sim.duration_s": (float, 10.0),
    "sim.poll_interval_s": (float, 1.0),
    "sim.master_seed": (int, 1234567),
    "sim.snr_db": (float, 20.0),
    "sim.calibration_gap": (float, 0.10),
}

# Receiver derivation rules.  The envelope smoother must knock the
# carrier-rate ripple of the rectified drive down by about RIPPLE_REJECTION;
# cascaded identical sections share that requirement, so each section needs
# tau = RIPPLE_REJECTION**(1/order) / (2*pi*carrier).  For a single section
# this is exactly four carrier periods.
RIPPLE_REJECTION = 8.0 * math.pi
HF_CUTOFF_CARRIER_RATIO = 2.0
THRESHOLD_ENVELOPE_FRACTION = 0.3


def mark_envelope(link: LinkParams, tx: TxParams) -> float:
    """Settled envelope level while the carrier is on.

    The rectified drive is a unipolar square of swing tx.swing at 50% duty,
    so after the unity-DC-gain filters the envelope sits at half the
    received swing (the drive swing times the link's voltage gain).
    """
    return 0.5 * tx.swing * voltage_gain(link, tx.carrier_freq)


def noise_rms_for_snr(link: LinkParams, tx: TxParams, snr_db: float) -> float:
    """Channel noise RMS giving the stated SNR at the receiver input.

    SNR is referenced to the mark-state signal power: the received square
    of swing A at 50% duty has RMS A/sqrt(2).
    """
    swing = 2.0 * mark_envelope(link, tx)
    return (swing / math.sqrt(2.0)) / (10.0 ** (snr_db / 20.0))


def _link_at(r: dict[str, object], gap: float) -> LinkParams:
    """The noiseless link of resolved settings r at an air gap."""
    return _fill(LinkParams, "link", {**r, "link.gap": gap, "link.noise_rms": 0.0})


# The rule for each derived key, given the settings resolved so far and the
# transmitter.  build_config runs the rules in this order, each only when its
# key is unset, so the tank is resolved before the rules that use the coils.
_DERIVED = {
    "link.c_tank": lambda r, tx: tuned_c_tank(tx.carrier_freq, r["link.l_secondary"]),
    "link.noise_rms": lambda r, tx: noise_rms_for_snr(
        _link_at(r, r["link.gap"]), tx, r["sim.snr_db"]),
    # The noise-filter corner sits above the carrier so the carrier passes cleanly.
    "rx.hf_cutoff": lambda r, tx: HF_CUTOFF_CARRIER_RATIO * tx.carrier_freq,
    "rx.envelope_tau": lambda r, tx: RIPPLE_REJECTION ** (1.0 / r["rx.envelope_order"]) / (
        2.0 * math.pi * tx.carrier_freq),
    # The comparator is sized for the worst-case (largest) air gap.
    "rx.threshold": lambda r, tx: THRESHOLD_ENVELOPE_FRACTION * mark_envelope(
        _link_at(r, r["sim.calibration_gap"]), tx),
    "usart.spbrg": lambda r, tx: brg_divisor(
        r["usart.fosc"], tx.bit_rate, brgh=r["usart.brgh"]).spbrg,
}

_DEFAULT_SCRIPT = (ScriptStep(0.0, MotorState(25.0, 1450.0, 230.0, 1.5)),)

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}
# bool is an int subclass, so it is told apart before these checks.
_ACCEPTED = {float: numbers.Real, int: numbers.Integral, bool: bool}


def _coerce(key: str, value):
    """Check one setting against SETTINGS and return it as the key's type.

    Strings parse as config-file text: integers exactly, booleans from words,
    floats only when finite.  Other values must already be of the key's type;
    an integer is accepted for a float key, a bool only for a bool key.
    None is accepted only for a derived key.
    """
    if key not in SETTINGS:
        raise ConfigError(f"unknown configuration key {key!r}")
    kind, default = SETTINGS[key]
    if value is None and default is None:
        return None
    try:
        if isinstance(value, str):
            typed = _BOOL_WORDS[value.strip().lower()] if kind is bool else kind(value)
        elif isinstance(value, bool) == (kind is bool) and isinstance(value, _ACCEPTED[kind]):
            typed = kind(value)
        else:
            raise TypeError(f"expected {kind.__name__}")
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{key}: cannot use {value!r} as {kind.__name__}") from exc
    # NaN passes every ordered comparison the parameter checks make, so it
    # and infinity are stopped here, before any value is used.
    if kind is float and not math.isfinite(typed):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return typed


def setting_key(name: str) -> str:
    """The SETTINGS key called name, in full or by its part after the dot."""
    if name in SETTINGS:
        return name
    matches = [key for key in SETTINGS if key.split(".", 1)[1] == name]
    if len(matches) != 1:
        raise ConfigError(f"unknown configuration key {name!r}")
    return matches[0]


def _parse_script_step(key: str, raw: str) -> ScriptStep:
    parts = raw.split()
    if len(parts) != 5:
        raise ConfigError(
            f"{key}: expected '<time_s> <temp_c> <speed_rpm> <voltage_v> <current_a>'")
    try:
        time_s, *reading = (float(p) for p in parts)
        return ScriptStep(time_s, MotorState(*reading))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config_text(text: str) -> tuple[dict[str, object], list[ScriptStep]]:
    """Parse config text into a flat key/value map plus the script steps."""
    values: dict[str, object] = {}
    script: dict[int, ScriptStep] = {}
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
            if index in script:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            script[index] = _parse_script_step(key, raw)
        else:
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = _coerce(key, raw)
    steps = [script[index] for index in sorted(script)]
    return values, steps


def _fill(cls, section: str, settings: dict[str, object], /, **given):
    """cls with every field that has a section.<field> setting read from it."""
    named = {f.name: settings[f"{section}.{f.name}"] for f in fields(cls)
             if f"{section}.{f.name}" in settings}
    return cls(**named, **given)


def build_config(values: dict[str, object] | None = None,
                 script: list[ScriptStep] | None = None) -> ScenarioConfig:
    """Resolve a ScenarioConfig from overrides of the SETTINGS defaults."""
    settings = {key: default for key, (_, default) in SETTINGS.items()}
    for key, value in (values or {}).items():
        settings[key] = _coerce(key, value)
    script = tuple(script) if script else _DEFAULT_SCRIPT
    if settings["rx.envelope_order"] not in (1, 2, 3):
        raise ConfigError("rx.envelope_order must be 1, 2, or 3")
    if settings["sim.calibration_gap"] < 0:
        raise ConfigError("sim.calibration_gap must be non-negative")

    # Each section runs its rules, then fills its object, so a link the
    # receiver rules use has passed its checks.  The parameter objects name
    # the field at fault, and the section prefixed here makes that the key.
    resolved = dict(settings)
    made = {}
    for section, cls in (("tx", TxParams), ("thresholds", Thresholds), ("link", LinkParams),
                         ("rx", RxParams), ("usart", UsartConfig)):
        try:
            for key, rule in _DERIVED.items():
                if key.startswith(f"{section}.") and resolved[key] is None:
                    resolved[key] = rule(resolved, made["tx"])
            made[section] = _fill(cls, section, resolved)
        except SpbrgRangeError as exc:
            raise ConfigError(f"tx.bit_rate, usart.fosc, usart.brgh: {exc}; "
                              "pin usart.spbrg to choose the divisor") from exc
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from exc
    return _fill(ScenarioConfig, "sim", settings, **made, script=script,
                 settings=settings, resolved=resolved)


def load_config(path: str) -> ScenarioConfig:
    """Load a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    values, script = parse_config_text(text)
    return build_config(values, script)


def with_settings(cfg: ScenarioConfig, values: dict[str, object]) -> ScenarioConfig:
    """Variant of cfg with some settings changed, resolved by build_config.

    Settings cfg pinned stay pinned; derived ones are derived again.
    """
    return build_config({**cfg.settings, **values}, cfg.script)
