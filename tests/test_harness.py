import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iptsim import harness
from iptsim.channel import voltage_gain
from iptsim.config import ConfigError, ScriptStep, build_config, with_settings
from iptsim.harness import (IDLE_PREAMBLE_BITS, IDLE_TAIL_BITS, MaxRateResult,
                            NoFeasibleRateError, SweepResult, TraceRecord,
                            _error_budget, _point_config, ber_sweep, emit_csv,
                            frame_line_bits, max_data_rate, run_scenario,
                            session_airtime_s)
from iptsim.seeds import derive_seed
from iptsim.simulate import run_line
from iptsim.telemetry import MotorState
from iptsim.usart import actual_baud, frame_encode


@pytest.fixture(scope="module")
def short_cfg():
    return build_config({"sim.duration_s": 2.0})


# ---- scenario runner --------------------------------------------------------

def test_scenario_noiseless_full_delivery(short_cfg):
    cfg = _point_config(short_cfg, "link.noise_rms", 0.0)
    report, traces = run_scenario(cfg)
    assert report.sessions == 2
    assert report.frames_sent == 4            # poll + reply per session
    assert report.frames_delivered == 4
    assert report.bit_errors == 0
    assert report.display_line1 == "  25.0C  1450RPM"
    assert any(r.stage == "temp" for r in traces)


def test_scenario_fault_alarm_and_display():
    cfg = build_config({"sim.duration_s": 4.0},
                       script=[ScriptStep(0.0, MotorState(25.0, 1450, 230.0, 1.5)),
                               ScriptStep(2.0, MotorState(95.0, 1450, 230.0, 1.5))])
    report, traces = run_scenario(cfg)
    assert report.fault_events == [(2.0, 1)]
    assert "FLT:01" in report.display_line2
    alarm = [r for r in traces if r.stage == "reply_type" and r.value == 3.0]
    assert len(alarm) == 1 and alarm[0].time_s == 2.0


def test_scenario_sends_the_last_step_at_or_before_each_session():
    steps = [ScriptStep(t, MotorState(temp, 1450, 230.0, 1.5))
             for t, temp in ((-1.0, 30.0), (1.0, 40.0), (1.5, 50.0))]
    _, traces = run_scenario(build_config({"sim.duration_s": 3.0}, steps))
    assert [(r.time_s, r.value) for r in traces if r.stage == "temp"] == \
        [(0.0, 30.0), (1.0, 40.0), (2.0, 50.0)]


def test_scenario_deterministic(short_cfg):
    a = run_scenario(short_cfg)
    b = run_scenario(short_cfg)
    assert emit_csv(a[1]) == emit_csv(b[1])
    assert a[0] == b[0]


def test_report_shows_configured_usart():
    # An explicit SPBRG is reported as configured, not re-derived from the bit rate.
    cfg = build_config({"sim.duration_s": 1.0, "usart.spbrg": 100})
    report, _ = run_scenario(cfg)
    assert report.spbrg == 100
    assert report.actual_baud == actual_baud(cfg.usart) == 4e6 / (64 * 101)
    assert report.baud_error_pct == pytest.approx(100 * (4e6 / (64 * 101) - 250) / 250)


def test_session_airtime(short_cfg):
    # 66 poll bits + 156 reply bits at 250 bit/s
    assert session_airtime_s(short_cfg) == pytest.approx(222 / 250)


# ---- framing ----------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(payload=st.binary(max_size=40), nine_bit=st.booleans())
def test_frame_line_bits_is_the_concatenated_frames(payload, nine_bit):
    cfg = build_config({"usart.nine_bit": nine_bit})
    ninth = 0 if nine_bit else None
    expected = [1] * IDLE_PREAMBLE_BITS
    for b in payload:
        expected += frame_encode(b, ninth, cfg.usart)
    expected += [1] * IDLE_TAIL_BITS
    bits = frame_line_bits(payload, cfg)
    assert bits.dtype == np.uint8
    assert bits.tolist() == expected


# ---- sweeps -----------------------------------------------------------------

def test_sweep_noiseless_gap_points(baseline_cfg):
    cfg = _point_config(baseline_cfg, "link.noise_rms", 0.0)
    results = ber_sweep(cfg, "gap", [0.0, 0.05, 0.10], bits_per_point=1000)
    for r in results:
        assert r.ber == 0.0
        assert r.frames_delivered == r.frames_sent
        assert r.bits_sent >= 1000


def test_sweep_deterministic(baseline_cfg):
    a = ber_sweep(baseline_cfg, "noise_rms", [0.05, 0.2], bits_per_point=1000)
    b = ber_sweep(baseline_cfg, "noise_rms", [0.05, 0.2], bits_per_point=1000)
    assert a == b


def test_sweep_ber_rises_with_heavy_noise(baseline_cfg):
    heavy = baseline_cfg.link.noise_rms * 40
    results = ber_sweep(baseline_cfg, "noise_rms", [0.0, heavy], bits_per_point=1000)
    assert results[0].ber == 0.0
    assert results[1].ber > results[0].ber


def test_sweep_ber_non_decreasing_in_noise(baseline_cfg):
    # The cliff is sharp: once the rectified noise floor crosses the
    # comparator band the output latches and BER saturates, so probe the
    # clean side, the operating point, and the far side.
    base = baseline_cfg.link.noise_rms
    results = ber_sweep(baseline_cfg, "noise_rms", [0.0, base, 5 * base],
                        bits_per_point=1000)
    bers = [r.ber for r in results]
    assert bers == sorted(bers)
    assert bers[0] == 0.0 and bers[-1] > 0


def test_sweep_ber_non_decreasing_in_gap(baseline_cfg):
    results = ber_sweep(baseline_cfg, "gap", [0.0, 0.10, 0.16, 0.25],
                        bits_per_point=1000)
    bers = [r.ber for r in results]
    assert bers == sorted(bers)
    assert bers[0] == 0.0 and bers[-1] > 0


def test_nine_bit_mode_end_to_end():
    cfg = build_config({"usart.nine_bit": True, "sim.duration_s": 2.0})
    report, _ = run_scenario(cfg)
    assert report.frames_delivered == report.frames_sent == 4
    assert report.bit_errors == 0


@pytest.mark.parametrize("variable,key,value", [("gap", "link.gap", 0.12),
                                                ("noise_rms", "link.noise_rms", 0.3),
                                                ("bit_rate", "tx.bit_rate", 400.0)])
def test_point_config_re_resolves_to_itself(baseline_cfg, variable, key, value):
    # A point holds what the base derived, so re-resolving it changes nothing.
    point = _point_config(baseline_cfg, key, value)
    assert point.settings[key] == value
    assert with_settings(point, {}) == point
    for held in ("rx", "usart"):
        assert getattr(point, held) == getattr(baseline_cfg, held)
    if variable != "noise_rms":
        assert point.link.noise_rms == baseline_cfg.link.noise_rms


def test_low_rate_points_hold_spbrg(baseline_cfg):
    # 50 and 100 bit/s are out of the baud-rate generator's reach at 4 MHz, so
    # a point that derived SPBRG again would be a ConfigError.
    probe = _point_config(baseline_cfg, "tx.bit_rate", 50.0)
    assert probe.tx.bit_rate == 50.0 and probe.usart.spbrg == baseline_cfg.usart.spbrg
    [point] = ber_sweep(baseline_cfg, "bit_rate", [100.0], bits_per_point=1000)
    assert point.var == 100.0 and point.frames_sent > 0


def test_sweep_any_key_holds_the_calibration(baseline_cfg):
    # A +10% pickup capacitor detunes the tank; the point keeps the base's
    # receiver, noise and SPBRG, so only the link gain changes (Q = 10).
    c = baseline_cfg.link.c_tank
    results = ber_sweep(baseline_cfg, "link.c_tank", [c, 1.1 * c], bits_per_point=1000)
    assert [r.var for r in results] == [c, 1.1 * c]
    point = _point_config(baseline_cfg, "link.c_tank", 1.1 * c)
    assert point.rx == baseline_cfg.rx
    assert point.link.noise_rms == baseline_cfg.link.noise_rms
    assert point.usart.spbrg == baseline_cfg.usart.spbrg
    gain = [voltage_gain(cfg.link, cfg.tx.carrier_freq)
            for cfg in (baseline_cfg, point)]
    assert gain[1] / gain[0] == pytest.approx(0.7237, abs=1e-4)


@pytest.mark.parametrize("variable,value,read", [
    ("q_factor", 20.0, lambda link, rx: link.q_factor),
    ("envelope_order", 2, lambda link, rx: rx.envelope_order),
])
def test_sweep_names_reach_their_section(baseline_cfg, monkeypatch, variable, value, read):
    # link.q_factor and rx.envelope_order, swept by the name after the dot,
    # reach the link and receiver that run_line is given.
    seen = []

    def recording(line_bits, link, tx, rx, *args, **kwargs):
        seen.append(read(link, rx))
        return line_bits, []

    monkeypatch.setattr(harness, "run_line", recording)
    [point] = ber_sweep(baseline_cfg, variable, [value], bits_per_point=1000)
    assert point.var == value and seen == [value]


def _no_run_line(*args, **kwargs):
    raise AssertionError("a point ran before every value was checked")


@pytest.mark.parametrize("variable,values,key", [
    ("link.noise_rms", [None], "link.noise_rms"),
    ("gap", [0.05, 0.10, "abc"], "link.gap"),
    # A point holds what the base derived, seeds from the base and runs no
    # scenario, so no sim.* or thresholds.* key can change it.
    ("snr_db", [0.0, 20.0], "sim.snr_db"),
    ("master_seed", [1, 2], "sim.master_seed"),
    ("sim.duration_s", [1.0, 2.0], "sim.duration_s"),
    ("thresholds.temp_max_c", [60.0, 80.0], "thresholds.temp_max_c"),
    # Values of the key's type that a point's parameter objects refuse, after
    # a value that runs: every point's config is built before the first runs.
    ("gap", [0.05, -0.01], "link.gap must be finite and non-negative"),
    ("rx.envelope_order", [1, 4], "rx.envelope_order must be 1, 2, or 3"),
    ("tx.bit_rate", [250, 2000], "tx.carrier_freq must be at least 10x the bit rate"),
])
def test_sweep_checks_every_value_before_any_point(baseline_cfg, monkeypatch, variable,
                                                   values, key):
    monkeypatch.setattr(harness, "run_line", _no_run_line)
    with pytest.raises(ConfigError, match=key):
        ber_sweep(baseline_cfg, variable, values, bits_per_point=1000)


def test_sweep_validates_arguments(baseline_cfg):
    with pytest.raises(ValueError):
        ber_sweep(baseline_cfg, "coupling", [0.1])
    with pytest.raises(ValueError):
        ber_sweep(baseline_cfg, "gap", [])
    with pytest.raises(ValueError):
        ber_sweep(baseline_cfg, "gap", [0.0], bits_per_point=10)


# ---- max data rate ----------------------------------------------------------

def test_max_data_rate_infeasible_link(baseline_cfg):
    # At half a meter the received envelope sits far below the calibrated
    # threshold, so even the minimum rate fails.
    dead = _point_config(baseline_cfg, "link.gap", 0.5)
    with pytest.raises(NoFeasibleRateError):
        max_data_rate(dead, 1e-3, bits_per_probe=200)
    with pytest.raises(NoFeasibleRateError):
        _full_probe_search(dead, 1e-3, 200, 50)


def test_max_data_rate_validates_ceiling(baseline_cfg):
    with pytest.raises(ValueError):
        max_data_rate(baseline_cfg, 0.0)


@pytest.mark.parametrize("bits_per_probe", [0, -5])
def test_max_data_rate_rejects_bad_probe_size_by_name(baseline_cfg, bits_per_probe):
    with pytest.raises(ValueError, match="bits_per_probe"):
        max_data_rate(baseline_cfg, 1e-3, bits_per_probe=bits_per_probe)


@pytest.mark.parametrize("min_rate", [0, -250])
def test_max_data_rate_rejects_bad_min_rate_by_name(baseline_cfg, min_rate):
    with pytest.raises(ValueError, match="min_rate"):
        max_data_rate(baseline_cfg, 1e-3, bits_per_probe=100, min_rate=min_rate)


@pytest.mark.parametrize("ceiling,bits,budget", [(0.29, 100, 29), (1e-3, 2000, 2),
                                                 (1e-3, 999, 0), (0.01, 100, 1)])
def test_error_budget_edges(ceiling, bits, budget):
    # 0.29 * 100 is 28.999999999999996, yet 29 errors in 100 bits pass.
    assert _error_budget(ceiling, bits) == budget


@given(ceiling=st.floats(1e-6, 1.0, exclude_max=True), bits=st.integers(1, 10 ** 7))
def test_error_budget_is_the_largest_passing_count(ceiling, bits):
    budget = _error_budget(ceiling, bits)
    assert budget / bits <= ceiling < (budget + 1) / bits


def _full_probe_ber(cfg, rate, bits_per_probe):
    """BER of one max_data_rate probe run to its last bit."""
    seed = derive_seed(cfg.master_seed, rate)
    rng = np.random.default_rng(derive_seed(seed, 1))
    line_bits = rng.integers(0, 2, bits_per_probe).astype(np.uint8)
    tx = replace(cfg.tx, bit_rate=float(rate))
    mids, _ = run_line(line_bits, cfg.link, tx, cfg.rx, derive_seed(seed, 2))
    assert mids.size == bits_per_probe
    return int(np.count_nonzero(mids != line_bits)) / bits_per_probe


def _full_bisection(cfg, ber_ceiling, bits_per_probe, lo):
    """The bisection of max_data_rate from lo, taken as feasible, each probe
    run to its last bit."""
    hi = int(cfg.tx.carrier_freq // 10)
    if _full_probe_ber(cfg, hi, bits_per_probe) <= ber_ceiling:
        return MaxRateResult(hi, 0)
    while hi - lo > max(1, int(0.02 * lo)):
        mid = (lo + hi) // 2
        if _full_probe_ber(cfg, mid, bits_per_probe) <= ber_ceiling:
            lo = mid
        else:
            hi = mid
    return MaxRateResult(lo, hi - lo)


def _full_probe_search(cfg, ber_ceiling, bits_per_probe, min_rate):
    """The search that probes min_rate first and raises if it fails, then
    bisects, each probe run to its last bit."""
    if _full_probe_ber(cfg, min_rate, bits_per_probe) > ber_ceiling:
        raise NoFeasibleRateError(f"minimum rate {min_rate}")
    return _full_bisection(cfg, ber_ceiling, bits_per_probe, min_rate)


@settings(max_examples=10, deadline=None)
@given(master_seed=st.integers(0, 2 ** 32 - 1),
       ceiling=st.floats(math.log(1e-3), math.log(0.3)).map(math.exp),
       bits_per_probe=st.integers(100, 600))
# Budget 0 and budget 1: at this seed a budget one higher or lower changes the answer.
@example(master_seed=1, ceiling=1e-3, bits_per_probe=100)
@example(master_seed=1, ceiling=0.01, bits_per_probe=100)
def test_max_data_rate_matches_full_probe_search(baseline_cfg, master_seed, ceiling,
                                                 bits_per_probe):
    # Probes that stop once they exceed the error budget must give the
    # answer of the search that runs every probe to the end.  Where min_rate
    # fails, the search raises only if no faster probe passes either.
    cfg = _point_config(baseline_cfg, "sim.master_seed", master_seed)
    try:
        expected = _full_probe_search(cfg, ceiling, bits_per_probe, 250)
    except NoFeasibleRateError:
        expected = _full_bisection(cfg, ceiling, bits_per_probe, 250)
        if expected.rate_bps == 250:
            with pytest.raises(NoFeasibleRateError):
                max_data_rate(cfg, ceiling, bits_per_probe=bits_per_probe, min_rate=250)
            return
    assert max_data_rate(cfg, ceiling, bits_per_probe=bits_per_probe, min_rate=250) == expected


def test_max_data_rate_probes_through_harness_run_line(baseline_cfg, monkeypatch):
    # perfbench's tracer counts probes by rebinding harness.run_line.  The
    # baseline search probes the carrier limit first and never needs its
    # 50 bit/s floor, since a faster probe passes.
    probes = []

    def recording(line_bits, link, tx, *args, max_errors=None, **kwargs):
        probes.append((tx.bit_rate, max_errors))
        return run_line(line_bits, link, tx, *args, max_errors=max_errors, **kwargs)

    monkeypatch.setattr(harness, "run_line", recording)
    assert max_data_rate(baseline_cfg, 1e-3) == MaxRateResult(413, 7)
    assert [rate for rate, _ in probes] == [1000, 525, 287, 406, 465, 435, 420, 413]
    assert {limit for _, limit in probes} == {2}


def _stub_probes(monkeypatch, passes):
    """Replace each probe by passes(rate); returns the rates probed, in order."""
    probed = []

    def probe(cfg, rate, bits_per_probe, max_errors):
        probed.append(rate)
        return passes(rate)

    monkeypatch.setattr(harness, "_probe_passes", probe)
    return probed


def test_max_data_rate_failing_floor_does_not_decide(baseline_cfg, monkeypatch):
    # Declared behaviour: min_rate is probed only when no faster probe
    # passes, so a failing min_rate under a passing faster rate (BER not
    # monotone in rate) gives the answer of a passing one.
    _stub_probes(monkeypatch, lambda rate: rate <= 400)
    with_floor = max_data_rate(baseline_cfg, 1e-3)
    probed = _stub_probes(monkeypatch, lambda rate: 50 < rate <= 400)
    assert max_data_rate(baseline_cfg, 1e-3) == with_floor == MaxRateResult(398, 4)
    assert 50 not in probed


def test_max_data_rate_first_probe_is_the_carrier_limit(monkeypatch):
    # The limit is carrier_freq // 10: 1234 bit/s at a 12 345 Hz carrier, a
    # rate TxParams accepts, while 1235 bit/s is refused.
    cfg = build_config({"tx.carrier_freq": 12_345.0})
    probed = _stub_probes(monkeypatch, lambda rate: True)
    assert max_data_rate(cfg, 1e-3) == MaxRateResult(1234, 0)
    assert probed == [1234]
    assert _point_config(cfg, "tx.bit_rate", 1234).tx.bit_rate == 1234
    with pytest.raises(ConfigError, match="^tx.carrier_freq must be at least 10x the bit rate$"):
        _point_config(cfg, "tx.bit_rate", 1235)


def test_max_data_rate_probes_the_floor_last_when_nothing_passes(baseline_cfg,
                                                                monkeypatch):
    probed = _stub_probes(monkeypatch, lambda rate: False)
    with pytest.raises(NoFeasibleRateError):
        max_data_rate(baseline_cfg, 1e-3)
    assert probed[-1] == 50 and probed.count(50) == 1
    assert len(set(probed)) == len(probed)


@pytest.mark.parametrize("passes", [True, False])
def test_max_data_rate_floor_at_the_carrier_limit_takes_one_probe(baseline_cfg, monkeypatch,
                                                                  passes):
    probed = _stub_probes(monkeypatch, lambda rate: passes)
    if passes:
        assert max_data_rate(baseline_cfg, 1e-3, min_rate=1000) == MaxRateResult(1000, 0)
    else:
        with pytest.raises(NoFeasibleRateError):
            max_data_rate(baseline_cfg, 1e-3, min_rate=1000)
    assert probed == [1000]


# ---- CSV emission -----------------------------------------------------------

def test_emit_csv_empty_trace():
    assert emit_csv([]) == "time_s,stage,value,unit\n"


def test_emit_csv_single_record():
    text = emit_csv([TraceRecord(1.25, "temp", 25.0, "degC")])
    assert text == "time_s,stage,value,unit\n1.25,temp,25,degC\n"


def test_emit_csv_sweep_layout():
    text = emit_csv([SweepResult(0.05, 1000, 2, 0.002, 8, 7)])
    lines = text.splitlines()
    assert lines[0] == "var,bits,errors,ber,frames_sent,frames_delivered"
    assert lines[1] == "0.05,1000,2,0.002,8,7"


def test_emit_csv_round_trip_parse():
    records = [TraceRecord(0.0, "speed", 1450.123456789, "RPM"),
               TraceRecord(1.0, "voltage", 229.987654321, "V")]
    text = emit_csv(records)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    for row, rec in zip(rows, records):
        assert row["stage"] == rec.stage
        assert row["unit"] == rec.unit
        assert float(row["time_s"]) == pytest.approx(rec.time_s, rel=1e-8)
        assert float(row["value"]) == pytest.approx(rec.value, rel=1e-8)


def test_emit_csv_nine_significant_digits():
    text = emit_csv([TraceRecord(0.123456789123, "x", 0.987654321987, "u")])
    assert "0.123456789," in text
    assert ",0.987654322," in text


def test_emit_csv_rejects_unknown_record_type():
    with pytest.raises(TypeError):
        emit_csv([MaxRateResult(250, 5)])
