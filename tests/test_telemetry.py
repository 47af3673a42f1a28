import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iptsim.telemetry import (BadChecksumError, BadLengthError, BadSofError,
                              BadVersionError, FaultSet, FrameError,
                              FrameRangeError, MotorState, ProximityParams,
                              Thresholds, classify_faults, decode_frame,
                              encode_frame, encode_poll, proximity_pulses,
                              render_display, scan_frames, speed_from_pulses,
                              MSG_FAULT_ALARM, MSG_POLL, MSG_READING)

TH = Thresholds(temp_max_c=80.0, speed_max_rpm=3000.0, speed_min_rpm=200.0,
                volt_max_v=260.0, volt_min_v=180.0, curr_max_a=6.0,
                hysteresis_fraction=0.05)

NOMINAL = MotorState(temp_c=25.0, speed_rpm=1450.0, voltage_v=230.0, current_a=1.5)


def grid_state(rng) -> MotorState:
    """Random state aligned to the wire fixed-point grid."""
    return MotorState(
        temp_c=int(rng.integers(-32768, 32768)) / 100.0,
        speed_rpm=float(rng.integers(0, 65536)),
        voltage_v=int(rng.integers(0, 65536)) / 100.0,
        current_a=int(rng.integers(0, 65536)) / 1000.0,
    )


# ---- frame codec ------------------------------------------------------------

def test_encode_golden_frame():
    frame = encode_frame(NOMINAL, FaultSet(0))
    assert frame.hex() == "aa010109c409aa05d859dc0500bd"


def test_encode_zero_readings():
    frame = encode_frame(MotorState(0.0, 0.0, 0.0, 0.0), FaultSet(0))
    assert frame[4:13] == bytes(9)
    assert frame[-1] == (-(0xAA + 0x01 + 0x01 + 0x09)) & 0xFF


def test_frame_sums_to_zero_mod_256():
    frame = encode_frame(NOMINAL, FaultSet(0x21))
    assert sum(frame) % 256 == 0


def test_round_trip_exact():
    decoded = decode_frame(encode_frame(NOMINAL, FaultSet(0x05)))
    assert decoded.msg_type == MSG_READING
    assert decoded.state == MotorState(25.0, 1450.0, 230.0, 1.5)
    assert decoded.faults == FaultSet(0x05)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_random_states(seed):
    rng = np.random.default_rng(seed)
    state = grid_state(rng)
    faults = FaultSet(int(rng.integers(0, 0x40)))
    decoded = decode_frame(encode_frame(state, faults))
    assert decoded.state == MotorState(state.temp_c, state.speed_rpm,
                                       state.voltage_v, state.current_a)
    assert decoded.faults == faults


def test_poll_frame_round_trip():
    frame = encode_poll()
    assert len(frame) == 5
    assert decode_frame(frame).msg_type == MSG_POLL


def test_alarm_frame_round_trip():
    decoded = decode_frame(encode_frame(NOMINAL, FaultSet(0x01), MSG_FAULT_ALARM))
    assert decoded.msg_type == MSG_FAULT_ALARM
    assert decoded.faults == FaultSet(0x01)


def test_decode_truncated_frame():
    frame = encode_frame(NOMINAL, FaultSet(0))
    with pytest.raises(BadLengthError):
        decode_frame(frame[:8])
    # Four bytes hold the whole header, but not the checksum after it.
    with pytest.raises(BadLengthError,
                       match="^frame of 4 bytes is shorter than header plus checksum$"):
        decode_frame(frame[:4])


def test_decode_bad_sof():
    frame = bytearray(encode_frame(NOMINAL, FaultSet(0)))
    frame[0] = 0x55
    with pytest.raises(BadSofError):
        decode_frame(bytes(frame))


def test_decode_bad_version():
    frame = bytearray(encode_frame(NOMINAL, FaultSet(0)))
    frame[1] = 0x02
    with pytest.raises(BadVersionError):
        decode_frame(bytes(frame))


def test_decode_bad_checksum_on_payload_flip():
    frame = bytearray(encode_frame(NOMINAL, FaultSet(0)))
    frame[6] ^= 0x01
    with pytest.raises(BadChecksumError):
        decode_frame(bytes(frame))


def test_any_single_byte_corruption_detected():
    rng = np.random.default_rng(404)
    frame = encode_frame(grid_state(rng), FaultSet(0))
    for pos in range(len(frame)):
        for _ in range(4):
            delta = int(rng.integers(1, 256))
            corrupted = bytearray(frame)
            corrupted[pos] = (corrupted[pos] + delta) % 256
            with pytest.raises(FrameError):
                decode_frame(bytes(corrupted))


@pytest.mark.parametrize("state", [
    MotorState(400.0, 0, 0, 0),
    MotorState(0, 70000.0, 0, 0),
    MotorState(0, 0, 700.0, 0),
    MotorState(0, 0, 0, 70.0),
])
def test_encode_range_errors(state):
    with pytest.raises(FrameRangeError):
        encode_frame(state, FaultSet(0))


# Each field's last in-range value at either end of its wire integer, the
# value one wire unit past it, and the message that value raises.  A negative
# speed is refused by MotorState itself.
@pytest.mark.parametrize("field, last, past, message", [
    ("temp_c", 327.67, 327.68, "temp_c 327.68 exceeds int16 centi-degC"),
    ("temp_c", -327.68, -327.69, "temp_c -327.69 exceeds int16 centi-degC"),
    ("speed_rpm", 65535.0, 65536.0, "speed_rpm 65536.0 exceeds uint16 RPM"),
    ("voltage_v", 655.35, 655.36, "voltage_v 655.36 exceeds uint16 centi-V"),
    ("voltage_v", 0.0, -0.01, "voltage_v -0.01 exceeds uint16 centi-V"),
    ("current_a", 65.535, 65.536, "current_a 65.536 exceeds uint16 milli-A"),
    ("current_a", 0.0, -0.001, "current_a -0.001 exceeds uint16 milli-A"),
])
def test_encode_field_limits_are_exact(field, last, past, message):
    state = replace(NOMINAL, **{field: last})
    assert decode_frame(encode_frame(state, FaultSet(0))).state == state
    with pytest.raises(FrameRangeError) as exc:
        encode_frame(replace(NOMINAL, **{field: past}), FaultSet(0))
    assert str(exc.value) == message


def test_scan_frames_resyncs_after_garbage():
    good = encode_frame(NOMINAL, FaultSet(0))
    stream = b"\x12\x34" + good + b"\xaa\x99" + encode_poll() + good[:-4]
    found = scan_frames(stream)
    assert [f.msg_type for f in found] == [MSG_READING, MSG_POLL]


def test_fault_set_reserved_bits_rejected():
    with pytest.raises(ValueError):
        FaultSet(0x40)


def test_motor_state_invariants():
    with pytest.raises(ValueError):
        MotorState(25.0, -10.0, 230.0, 1.5)
    with pytest.raises(ValueError):
        MotorState(float("nan"), 1450.0, 230.0, 1.5)


def test_thresholds_invariants():
    with pytest.raises(ValueError):
        Thresholds(80, 200, 3000, 260, 180, 6)        # speed max below min
    with pytest.raises(ValueError):
        Thresholds(80, 3000, 200, 260, 180, 6, hysteresis_fraction=0.6)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["temp_max_c", "speed_max_rpm", "speed_min_rpm",
                                   "volt_max_v", "volt_min_v", "curr_max_a"])
def test_thresholds_refuse_non_finite_limits(field, value):
    # A NaN limit used to construct, and its fault could then never set.
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        replace(TH, **{field: value})


# ---- fault classifier -------------------------------------------------------

def test_classify_nominal_is_clear():
    assert classify_faults(NOMINAL, TH, FaultSet(0)) == FaultSet(0)


def test_classify_overtemp_sets_bit():
    state = MotorState(81.0, 1450, 230, 1.5)
    assert classify_faults(state, TH, FaultSet(0)).mask & FaultSet.OVERTEMP


@pytest.mark.parametrize("state,bit", [
    (MotorState(25, 3500, 230, 1.5), FaultSet.OVERSPEED),
    (MotorState(25, 100, 230, 1.5), FaultSet.UNDERSPEED),
    (MotorState(25, 1450, 280, 1.5), FaultSet.OVERVOLT),
    (MotorState(25, 1450, 150, 1.5), FaultSet.UNDERVOLT),
    (MotorState(25, 1450, 230, 9.0), FaultSet.OVERCURRENT),
])
def test_classify_each_fault(state, bit):
    assert classify_faults(state, TH, FaultSet(0)).mask == bit


def test_classify_hysteresis_forbids_chatter():
    # Readings alternate just above and just below the limit.  At a negative
    # limit the clearing band must still lie below it.
    for limit in (80.0, -10.0):
        th = replace(TH, temp_max_c=limit)
        transitions = 0
        prev = FaultSet(0)
        was_set = False
        for i in range(200):
            temp = limit + (0.1 if i % 2 == 0 else -0.1)
            faults = classify_faults(MotorState(temp, 1450, 230, 1.5), th, prev)
            now_set = bool(faults.mask & FaultSet.OVERTEMP)
            if now_set != was_set:
                transitions += 1
            was_set = now_set
            prev = faults
        assert transitions <= 1, f"limit {limit}"


def test_classify_clears_past_hysteresis_band():
    prev = classify_faults(MotorState(81, 1450, 230, 1.5), TH, FaultSet(0))
    held = classify_faults(MotorState(78, 1450, 230, 1.5), TH, prev)
    assert held.mask & FaultSet.OVERTEMP  # 78 > 80*0.95, still held
    cleared = classify_faults(MotorState(75, 1450, 230, 1.5), TH, held)
    assert not cleared.mask & FaultSet.OVERTEMP


@pytest.mark.parametrize("field,bit,below,inside,past", [
    ("voltage_v", FaultSet.UNDERVOLT, 175.0, 185.0, 190.0),   # 180 V, band up to 189 V
    ("speed_rpm", FaultSet.UNDERSPEED, 190.0, 205.0, 215.0),  # 200 RPM, band up to 210 RPM
], ids=["undervolt", "underspeed"])
def test_classify_clears_past_band_above_lower_limit(field, bit, below, inside, past):
    def at(value):
        return replace(NOMINAL, **{field: value})

    set_bit = classify_faults(at(below), TH, FaultSet(0))
    assert set_bit.mask == bit
    assert classify_faults(at(inside), TH, set_bit).mask == bit
    assert classify_faults(at(past), TH, set_bit).mask == 0
    assert classify_faults(at(inside), TH, FaultSet(0)).mask == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=0x3F),
       st.floats(min_value=80.01, max_value=300))
def test_classify_monotone_at_entry(prev_mask, temp):
    faults = classify_faults(MotorState(temp, 1450, 230, 1.5), TH, FaultSet(prev_mask))
    assert faults.mask & FaultSet.OVERTEMP


# ---- proximity sensor and tachometer ---------------------------------------

PROX = ProximityParams(sensing_range=4e-3, hysteresis=0.5e-3,
                       repeatability_sigma=0.005e-3, rng_seed=5)


def test_proximity_target_out_of_range():
    assert np.all(proximity_pulses(np.full(1000, 20e-3), PROX) == 0)
    with pytest.raises(ValueError, match="finite"):
        proximity_pulses(np.array([20e-3, np.nan, 20e-3]), PROX)


def _sinusoid_distance(cycles, fs=2e4):
    t = np.arange(int(cycles * fs)) / fs
    return 6e-3 + 3e-3 * np.sin(2 * np.pi * 1.0 * t)


def test_proximity_pulse_count_matches_crossings():
    cycles = 7
    wave = _sinusoid_distance(cycles)
    pulses = proximity_pulses(wave, PROX)
    rising = np.count_nonzero((pulses[1:] == 1) & (pulses[:-1] == 0))
    assert rising == cycles


def test_proximity_noiseless_deterministic():
    p = ProximityParams(4e-3, 0.5e-3, 0.0, rng_seed=9)
    wave = _sinusoid_distance(3)
    assert np.array_equal(proximity_pulses(wave, p), proximity_pulses(wave, p))


def test_proximity_params_bounds():
    with pytest.raises(ValueError):
        ProximityParams(4e-3, 5e-3, 0.0)       # hysteresis beyond inductive limit
    with pytest.raises(ValueError):
        ProximityParams(4e-3, 0.5e-3, 1e-3)    # repeatability too loose


@pytest.mark.parametrize("sensing_range", [math.nan, math.inf, 0.0, -4e-3])
def test_proximity_params_refuse_bad_sensing_range(sensing_range):
    with pytest.raises(ValueError, match="^sensing_range must be finite and positive$"):
        ProximityParams(sensing_range, 0.5e-3, 0.0)


def test_speed_no_edges():
    assert speed_from_pulses(np.zeros(1000, dtype=np.uint8), 1e3, 4, 1.0) == 0.0


def test_speed_hundred_edges():
    pulses = np.tile(np.array([0, 1] + [0] * 8, dtype=np.uint8), 100)
    assert speed_from_pulses(pulses, 1e3, 4, 1.0) == pytest.approx(1500.0)


def test_speed_window_longer_than_trace_refused():
    # A 10 s window over this 1 s trace of 1500 RPM used to read 150 RPM.
    pulses = np.tile(np.array([0, 1] + [0] * 8, dtype=np.uint8), 100)
    with pytest.raises(ValueError, match="window_s 10.0 spans 10000 samples"):
        speed_from_pulses(pulses, 1e3, 4, 10.0)


@pytest.mark.parametrize("name,value", [
    ("sample_rate", math.nan), ("sample_rate", math.inf), ("sample_rate", -1e3),
    ("window_s", math.nan), ("window_s", math.inf), ("window_s", -math.inf),
    ("teeth", 2.5), ("teeth", math.nan), ("teeth", 0), ("teeth", -4),
])
def test_speed_refuses_bad_arguments_by_name(name, value):
    # A NaN or infinite window used to fail deep in numpy without naming it,
    # and teeth=2.5 turned these 100 edges into 2400 RPM.
    pulses = np.tile(np.array([0, 1] + [0] * 8, dtype=np.uint8), 100)
    args = {"sample_rate": 1e3, "teeth": 4, "window_s": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        speed_from_pulses(pulses, **args)


def test_speed_teeth_scaling():
    pulses = np.tile(np.array([1, 0], dtype=np.uint8), 50)
    one = speed_from_pulses(pulses, 100.0, 1, 1.0)
    two = speed_from_pulses(pulses, 100.0, 2, 1.0)
    assert two == pytest.approx(one / 2)


def test_speed_within_one_quantum():
    fs, teeth, window = 1e4, 4, 1.0
    for rpm_true in (300.0, 1234.5, 2999.0):
        edge_rate = rpm_true / 60.0 * teeth
        t = np.arange(int(fs * window)) / fs
        pulses = ((t * edge_rate) % 1.0 < 0.5).astype(np.uint8)
        rpm = speed_from_pulses(pulses, fs, teeth, window)
        assert abs(rpm - rpm_true) <= 60.0 / (teeth * window)


# ---- display ----------------------------------------------------------------

def test_render_ok_status():
    line1, line2 = render_display(NOMINAL, FaultSet(0))
    assert line1 == "  25.0C  1450RPM"
    assert line2.startswith("230V 1.5A OK")
    assert len(line1) == len(line2) == 16


def test_render_fault_mask():
    _, line2 = render_display(NOMINAL, FaultSet(0x21))
    assert "FLT:21" in line2


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_render_always_16_chars(seed):
    rng = np.random.default_rng(seed)
    state = grid_state(rng)
    faults = FaultSet(int(rng.integers(0, 0x40)))
    line1, line2 = render_display(state, faults)
    assert len(line1) == 16
    assert len(line2) == 16
