import math
from dataclasses import fields
from pathlib import Path

import pytest

from iptsim.config import (_DERIVED, SETTINGS, ConfigError, ScenarioConfig, ScriptStep,
                           build_config, load_config, parse_config_text, setting_key,
                           with_settings)
from iptsim.channel import LinkParams, resonant_frequency, tank_gain
from iptsim.modem import RxParams, TxParams
from iptsim.telemetry import MotorState, Thresholds
from iptsim.usart import UsartConfig
from iptsim.harness import _point_config, run_scenario


def test_defaults_resolve(baseline_cfg):
    cfg = baseline_cfg
    assert cfg.tx.carrier_freq == 10e3
    assert cfg.rx.hf_cutoff == 20e3                       # 2x carrier
    assert cfg.rx.envelope_tau == pytest.approx(400e-6)   # 4 carrier periods
    assert cfg.usart.spbrg == 249                         # exact 250 baud at 4 MHz
    assert cfg.link.noise_rms > 0                         # derived from 20 dB SNR
    assert cfg.rx.threshold > 0


def test_threshold_calibrated_for_ten_cm(baseline_cfg):
    # 30% of the settled mark envelope at the calibration gap.
    from iptsim.config import mark_envelope
    import dataclasses
    worst = dataclasses.replace(baseline_cfg.link, gap=0.10)
    expected = 0.3 * mark_envelope(worst, baseline_cfg.tx)
    assert baseline_cfg.rx.threshold == pytest.approx(expected, rel=1e-12)


def test_parse_round_trip(tmp_path):
    text = """
# comment line
link.gap = 0.07
tx.bit_rate = 1000       # trailing comment
usart.brgh = true
sim.duration_s = 4.0
sim.poll_interval_s = 1.0
script.0 = 0.0 25.0 1450 230.0 1.5
script.1 = 2.0 90.0 1450 230.0 1.5
"""
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.link.gap == 0.07
    assert cfg.tx.bit_rate == 1000
    assert cfg.usart.brgh is True
    assert cfg.usart.spbrg == 249                         # exact 1000 baud, BRGH at 4 MHz
    assert len(cfg.script) == 2
    assert cfg.script[1] == ScriptStep(2.0, MotorState(90.0, 1450.0, 230.0, 1.5))


def test_unknown_key_reported():
    with pytest.raises(ConfigError, match="link.bogus"):
        parse_config_text("link.bogus = 3\n")


def test_bad_value_reported():
    with pytest.raises(ConfigError, match="tx.bit_rate"):
        parse_config_text("tx.bit_rate = fast\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("link.gap = 0.01\nlink.gap = 0.02\n")


def test_duplicate_script_index_rejected():
    text = "script.0 = 0.0 25 1450 230 1.5\nscript.0 = 1.0 25 1450 230 1.5\n"
    with pytest.raises(ConfigError, match="line 2: duplicate key 'script.0'"):
        parse_config_text(text)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("this is not a config line\n")


def test_script_must_be_increasing():
    steps = [ScriptStep(1.0, MotorState(25, 1450, 230, 1.5)),
             ScriptStep(0.5, MotorState(25, 1450, 230, 1.5))]
    with pytest.raises(ConfigError, match="script"):
        build_config(script=steps)


def test_filter_order_validated(baseline_cfg):
    with pytest.raises(ConfigError, match="envelope_order"):
        build_config({"rx.envelope_order": 4})
    for order in (0, 4):
        with pytest.raises(ConfigError, match="envelope_order"):
            with_settings(baseline_cfg, {"rx.envelope_order": order})


def test_integer_keys_parse_exactly():
    values, _ = parse_config_text("sim.master_seed = 12345678901234567891\n")
    assert values["sim.master_seed"] == 12345678901234567891
    assert build_config(values).master_seed == 12345678901234567891


@pytest.mark.parametrize("text", ["rx.envelope_order = 2.9", "rx.envelope_order = 2.0",
                                  "usart.spbrg = 1e2", "sim.master_seed = 7.5",
                                  {"sim.master_seed": 1.5}, {"usart.spbrg": 100.7},
                                  {"rx.envelope_order": 2.0}, {"link.gap": True}], ids=str)
def test_fractional_integer_text_rejected(text):
    # Dict input follows the same type rules as file text.
    if isinstance(text, dict):
        with pytest.raises(ConfigError, match=next(iter(text))):
            build_config(text)
    else:
        with pytest.raises(ConfigError, match=text.split(" ")[0]):
            parse_config_text(text + "\n")


def test_string_values_parse_as_file_text():
    cfg = build_config({"link.gap": "0.05", "sim.master_seed": "7", "usart.brgh": "no"})
    assert (cfg.link.gap, cfg.master_seed, cfg.usart.brgh) == (0.05, 7, False)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_master_seed_outside_64_bits_rejected(seed):
    values, _ = parse_config_text(f"sim.master_seed = {seed}\n")
    with pytest.raises(ConfigError, match="sim.master_seed"):
        build_config(values)


def test_domain_invariants_surface_as_config_errors():
    for values in ({"link.k0": 2.0}, {"tx.sample_rate": 1e4},
                   {"tx.bit_rate": 0}, {"tx.bit_rate": -250}):
        with pytest.raises(ConfigError):
            build_config(values)


@pytest.mark.parametrize("key,raw", [("link.noise_rms", "nan"), ("sim.duration_s", "nan"),
                                     ("tx.sample_rate", "inf"),
                                     ("sim.poll_interval_s", "inf")])
def test_non_finite_values_rejected(tmp_path, key, raw):
    # NaN slips past every ordered range check and infinity past most (nan
    # noise ran noiseless, nan duration ran no sessions, an infinite poll
    # interval ran one), so file and dict input are both refused.
    path = tmp_path / "scenario.cfg"
    path.write_text(f"{key} = {raw}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        load_config(str(path))
    with pytest.raises(ConfigError, match=key):
        build_config({key: float(raw)})


def test_non_finite_script_value_rejected():
    with pytest.raises(ValueError, match="time_s"):
        ScriptStep(float("nan"), MotorState(25, 1450, 230, 1.5))


@pytest.mark.parametrize("speed", ["-5", "inf"])
def test_script_reading_refused_by_motor_state_is_a_config_error(tmp_path, speed):
    # MotorState's own checks run when the config is built, not at the first
    # session of run_scenario.
    path = tmp_path / "scenario.cfg"
    path.write_text(f"script.0 = 0 25 {speed} 230 1.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^script\.0: speed_rpm must be"):
        load_config(str(path))
    with pytest.raises(ValueError, match="^speed_rpm must be"):
        ScriptStep(0, MotorState(25, float(speed), 230, 1.5))


@pytest.mark.parametrize("line,message", [
    ("script.3 = nan 25 1450 230 1.5", r"^script\.3: time_s must be finite, got nan$"),
    ("script.0 = 0 nan 1450 230 1.5", r"^script\.0: temp_c must be finite$"),
    ("script.1 = 0 25 1450 230 many", r"^script\.1: could not convert"),
])
def test_script_errors_name_their_key(line, message):
    # Each reading is built once, as it is read, so its error names its line.
    with pytest.raises(ConfigError, match=message):
        parse_config_text(line + "\n")


def test_script_must_start_at_or_before_zero(tmp_path):
    # A script starting at 2 s used to send its 2 s reading at 0 s and 1 s.
    path = tmp_path / "late.cfg"
    path.write_text("script.0 = 2 95 1450 230 1.5\n", encoding="utf-8")
    message = r"^script must start at or before 0 s, first step at 2\.0 s$"
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))
    with pytest.raises(ConfigError, match=message):
        build_config(script=[ScriptStep(2.0, MotorState(95, 1450, 230, 1.5))])
    early = build_config(script=[ScriptStep(-1.0, MotorState(25, 1450, 230, 1.5))])
    assert early.script[0].time_s == -1.0


def test_session_must_fit_poll_interval():
    # Only a scenario polls, so only run_scenario checks the session airtime.
    cfg = build_config({"sim.poll_interval_s": 0.1})
    with pytest.raises(ConfigError, match="poll_interval"):
        run_scenario(cfg)


def test_unreachable_baud_is_a_config_error():
    # 100 bit/s needs SPBRG 624 at 4 MHz with BRGH off.
    with pytest.raises(ConfigError) as err:
        build_config({"tx.bit_rate": 100})
    for key in ("tx.bit_rate", "usart.fosc", "usart.brgh", "usart.spbrg"):
        assert key in str(err.value)
    pinned = build_config({"tx.bit_rate": 100, "usart.spbrg": 255})
    assert (pinned.tx.bit_rate, pinned.usart.spbrg) == (100, 255)


def test_resolved_map_holds_the_derived_values(baseline_cfg):
    assert set(_DERIVED) == {key for key, (_, default) in SETTINGS.items() if default is None}
    resolved = baseline_cfg.resolved
    assert {key: value for key, value in resolved.items() if key not in _DERIVED} == \
        {key: value for key, value in baseline_cfg.settings.items() if key not in _DERIVED}
    assert all(baseline_cfg.settings[key] is None for key in _DERIVED)
    assert resolved["usart.spbrg"] == 249
    assert resolved["link.c_tank"] == baseline_cfg.link.c_tank
    assert resolved["rx.threshold"] == baseline_cfg.rx.threshold
    assert resolved["link.noise_rms"] == baseline_cfg.link.noise_rms
    held = with_settings(baseline_cfg, {**resolved, "sim.snr_db": 0.0})
    assert held.link.noise_rms == baseline_cfg.link.noise_rms


def test_tank_is_tuned_to_the_carrier(baseline_cfg):
    assert baseline_cfg.link.c_tank == 1 / ((2 * math.pi * 1e4) ** 2 * 1e-3)
    assert tank_gain(10e3, baseline_cfg.link) == 1.0


def test_config_file_carrier_tunes_the_tank(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text("tx.carrier_freq = 20e3\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert resonant_frequency(cfg.link) == pytest.approx(20e3, rel=1e-12)
    assert cfg.link.c_tank == 6.332573977646111e-08


@pytest.mark.parametrize("values", [{"link.l_secondary": 0.0}, {"link.l_secondary": -1e-3},
                                    {"link.l_primary": 0.0}], ids=str)
@pytest.mark.parametrize("tank", [{}, {"link.c_tank": 2.5e-7}], ids=["derived", "pinned"])
def test_non_positive_inductance_is_a_config_error(values, tank):
    # The derived tank's rule refuses l_secondary as LinkParams does.
    key = next(iter(values))
    with pytest.raises(ConfigError, match=f"^{key} must be finite and positive$"):
        build_config({**values, **tank})


def test_zero_fosc_reports_one_message():
    # With SPBRG derived, brg_divisor refuses fosc; with it pinned, UsartConfig does.
    for values in ({"usart.fosc": 0}, {"usart.fosc": 0, "usart.spbrg": 249}):
        with pytest.raises(ConfigError, match=r"^usart\.fosc must be finite and positive, got 0\.0$"):
            build_config(values)


_NAMED_ERRORS = [
    ({"link.q_factor": 0}, "link.q_factor must be finite and positive"),
    # The link is checked before the receiver rules build it at the calibration gap.
    ({"link.k0": 2.0, "link.noise_rms": 0.01}, "link.k0 must be in (0, 1], got 2.0"),
    ({"tx.vcc": 0}, "tx.vcc must be finite and positive"),
    ({"tx.ic_on": 1.0}, "tx.vcc must be at least the saturated drop ic_on*rc_load"),
    ({"thresholds.hysteresis_fraction": 0.5},
     "thresholds.hysteresis_fraction must be in (0, 0.5)"),
    ({"rx.threshold": -1}, "rx.threshold must be finite and positive"),
    ({"usart.spbrg": 256}, "usart.spbrg must be in 0..255, got 256"),
    ({"sim.calibration_gap": -0.01}, "sim.calibration_gap must be non-negative"),
]


@pytest.mark.parametrize("values,message", _NAMED_ERRORS,
                         ids=[next(iter(values)) for values, _ in _NAMED_ERRORS])
def test_config_errors_name_their_key(values, message):
    with pytest.raises(ConfigError) as exc:
        build_config(values)
    assert str(exc.value) == message


def test_setting_key_takes_a_key_or_its_name():
    assert len({key.split(".")[1] for key in SETTINGS}) == len(SETTINGS)
    assert setting_key("link.c_tank") == "link.c_tank"
    assert setting_key("gap") == "link.gap"
    assert setting_key("bit_rate") == "tx.bit_rate"
    for name in ("coupling", "noise"):
        with pytest.raises(ConfigError, match=repr(name)):
            setting_key(name)


def test_explicit_noise_overrides_snr():
    cfg = build_config({"link.noise_rms": 0.02})
    assert cfg.link.noise_rms == 0.02
    # a carrier variant keeps the pinned noise rather than re-deriving it
    assert with_settings(cfg, {"tx.carrier_freq": 20e3}).link.noise_rms == 0.02


def test_filter_order_shrinks_envelope_tau():
    base = build_config()
    faster = with_settings(base, {"rx.envelope_order": 2})
    assert faster.rx.envelope_order == 2
    assert faster.rx.envelope_tau < base.rx.envelope_tau
    assert faster.rx.threshold == base.rx.threshold


def test_carrier_variant_retunes_tank():
    base = build_config()
    fast = with_settings(base, {"tx.carrier_freq": 20e3})
    assert fast.tx.carrier_freq == 20e3
    assert resonant_frequency(fast.link) == pytest.approx(20e3, rel=1e-12)
    assert fast.rx.hf_cutoff == 40e3
    assert fast.rx.envelope_tau == pytest.approx(base.rx.envelope_tau / 2)


def test_carrier_variant_keeps_pinned_tank():
    cfg = build_config({"link.c_tank": 2.8e-7})
    assert with_settings(cfg, {"tx.carrier_freq": 20e3}).link.c_tank == 2.8e-7


def test_carrier_sweep_point_holds_the_base_tank(baseline_cfg):
    point = _point_config(baseline_cfg, "tx.carrier_freq", 20e3)
    assert point.tx.carrier_freq == 20e3
    assert point.link == baseline_cfg.link
    assert resonant_frequency(point.link) == pytest.approx(10e3, rel=1e-12)
    assert point.rx == baseline_cfg.rx


def test_envelope_tau_order_rule():
    base = build_config()
    third = with_settings(base, {"rx.envelope_order": 3})
    expected = (8 * math.pi) ** (1 / 3) / (2 * math.pi * 10e3)
    assert third.rx.envelope_tau == pytest.approx(expected, rel=1e-12)


def test_carrier_variant_keeps_pinned_threshold():
    cfg = build_config({"rx.threshold": 0.2})
    assert with_settings(cfg, {"tx.carrier_freq": 20e3}).rx.threshold == 0.2


def test_with_no_settings_is_unchanged(baseline_cfg):
    assert with_settings(baseline_cfg, {}) == baseline_cfg


def test_baseline_file_matches_settings_table():
    shipped = Path(__file__).resolve().parents[1] / "configs" / "baseline.cfg"
    assert load_config(str(shipped)).settings == build_config().settings


# The object each section fills; sim.* fills the ScenarioConfig itself.
_SECTION_OBJECTS = {"link": LinkParams, "tx": TxParams, "rx": RxParams,
                    "usart": UsartConfig, "thresholds": Thresholds, "sim": ScenarioConfig}
_RULE_INPUTS = {"sim.snr_db", "sim.calibration_gap"}


def test_every_key_names_a_field_of_its_section():
    for key in set(SETTINGS) - _RULE_INPUTS:
        section, name = key.split(".")
        assert name in {f.name for f in fields(_SECTION_OBJECTS[section])}, key


@pytest.mark.parametrize("key", ["sim.q_factor", "sim.filter_order"])
def test_moved_keys_are_unknown(key):
    with pytest.raises(ConfigError, match=f"unknown configuration key {key!r}"):
        parse_config_text(f"{key} = 2\n")
    with pytest.raises(ConfigError, match=f"unknown configuration key {key!r}"):
        build_config({key: 2})

