"""Motor telemetry application layer.

Frame codec with a byte-exact wire format, threshold-based fault classifier
with hysteresis, and a 2x16 character display renderer.

Wire format:
    [0] 0xAA start of frame
    [1] 0x01 protocol version
    [2] message type (0x01 reading, 0x02 poll, 0x03 fault alarm)
    [3] payload length N
    [4..4+N) payload
    [4+N] checksum, chosen so the sum of every frame byte is 0 mod 256

Reading and fault-alarm payloads are 9 bytes, little-endian: the
READING_FIELDS in fixed point, then the fault bitmask uint8.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

SOF = 0xAA
VERSION = 0x01

MSG_READING = 0x01
MSG_POLL = 0x02
MSG_FAULT_ALARM = 0x03

FRAME_OVERHEAD = 5  # the four header bytes and the checksum

# The reading payload's fixed-point fields, in wire order:
# (MotorState field, struct code, wire units per unit, wire field in errors).
READING_FIELDS = (
    ("temp_c", "h", 100, "int16 centi-degC"),
    ("speed_rpm", "H", 1, "uint16 RPM"),
    ("voltage_v", "H", 100, "uint16 centi-V"),
    ("current_a", "H", 1000, "uint16 milli-A"),
)
_PAYLOAD_STRUCT = struct.Struct("<" + "".join(code for _, code, _, _ in READING_FIELDS) + "B")
READING_PAYLOAD_LEN = _PAYLOAD_STRUCT.size
READING_FRAME_LEN = FRAME_OVERHEAD + READING_PAYLOAD_LEN
POLL_FRAME_LEN = FRAME_OVERHEAD
_WIRE_RANGES = [(np.iinfo(code).min, np.iinfo(code).max) for _, code, _, _ in READING_FIELDS]


class FrameError(ValueError):
    """Base class for telemetry frame decode failures."""


class BadSofError(FrameError):
    pass


class BadVersionError(FrameError):
    pass


class BadLengthError(FrameError):
    pass


class BadChecksumError(FrameError):
    pass


class FrameFieldError(FrameError):
    """Structurally valid frame carrying an out-of-range field."""


class FrameRangeError(ValueError):
    """Reading exceeds its fixed-point wire field."""


@dataclass(frozen=True)
class MotorState:
    """Sensor readings for one acquisition instant."""

    temp_c: float
    speed_rpm: float
    voltage_v: float
    current_a: float

    def __post_init__(self):
        if self.speed_rpm < 0:
            raise ValueError("speed_rpm must be non-negative")
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class FaultSet:
    """Bitmask of active motor faults; the top two bits are reserved."""

    mask: int = 0

    OVERTEMP = 0x01
    OVERSPEED = 0x02
    UNDERSPEED = 0x04
    OVERVOLT = 0x08
    UNDERVOLT = 0x10
    OVERCURRENT = 0x20

    def __post_init__(self):
        if not 0 <= self.mask <= 0xFF:
            raise ValueError(f"mask must fit one byte, got {self.mask}")
        if self.mask & 0xC0:
            raise ValueError("reserved fault bits 6-7 must be zero")

    def __bool__(self) -> bool:
        return self.mask != 0


@dataclass(frozen=True)
class Thresholds:
    """Fault limits plus the relative hysteresis applied when clearing."""

    temp_max_c: float
    speed_max_rpm: float
    speed_min_rpm: float
    volt_max_v: float
    volt_min_v: float
    curr_max_a: float
    hysteresis_fraction: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.speed_max_rpm <= self.speed_min_rpm:
            raise ValueError("speed_max_rpm must exceed speed_min_rpm")
        if self.volt_max_v <= self.volt_min_v:
            raise ValueError("volt_max_v must exceed volt_min_v")
        if not 0 < self.hysteresis_fraction < 0.5:
            raise ValueError("hysteresis_fraction must be in (0, 0.5)")


@dataclass(frozen=True)
class DecodedFrame:
    """Result of decode_frame: message type plus parsed payload, if any."""

    msg_type: int
    state: MotorState | None = None
    faults: FaultSet | None = None


def _pack_reading(state: MotorState, faults: FaultSet) -> bytes:
    raw = []
    for (name, _, scale, wire), (lo, hi) in zip(READING_FIELDS, _WIRE_RANGES):
        value = getattr(state, name)
        raw.append(round(value * scale))
        if not lo <= raw[-1] <= hi:
            raise FrameRangeError(f"{name} {value} exceeds {wire}")
    return _PAYLOAD_STRUCT.pack(*raw, faults.mask)


def build_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """Assemble header, payload, and self-cancelling checksum."""
    if len(payload) > 255:
        raise FrameRangeError("payload exceeds one length byte")
    body = bytes([SOF, VERSION, msg_type, len(payload)]) + payload
    return body + bytes([-sum(body) & 0xFF])  # the frame then sums to 0 mod 256


def encode_frame(state: MotorState, faults: FaultSet,
                 msg_type: int = MSG_READING) -> bytes:
    """Encode readings plus fault mask as a reading or fault-alarm frame."""
    if msg_type not in (MSG_READING, MSG_FAULT_ALARM):
        raise ValueError("reading payloads only fit reading/alarm frames")
    return build_frame(msg_type, _pack_reading(state, faults))


def encode_poll() -> bytes:
    """Empty-payload poll frame sent by the monitor side."""
    return build_frame(MSG_POLL)


def decode_frame(data: bytes) -> DecodedFrame:
    """Validate and parse one frame.

    Raises BadLengthError, BadSofError, BadVersionError, BadChecksumError,
    or FrameFieldError; each failure mode is a distinct class.
    """
    data = bytes(data)
    if len(data) < FRAME_OVERHEAD:
        raise BadLengthError(f"frame of {len(data)} bytes is shorter than header plus checksum")
    if data[0] != SOF:
        raise BadSofError(f"bad start byte 0x{data[0]:02X}")
    if data[1] != VERSION:
        raise BadVersionError(f"unsupported version 0x{data[1]:02X}")
    n, got = data[3], len(data) - FRAME_OVERHEAD
    if got != n:
        raise BadLengthError(f"length byte says {n} payload bytes, frame has {got}")
    if sum(data) % 256 != 0:
        raise BadChecksumError("frame bytes do not sum to 0 mod 256")
    msg_type = data[2]
    payload = data[4:4 + n]
    if msg_type in (MSG_READING, MSG_FAULT_ALARM):
        if n != READING_PAYLOAD_LEN:
            raise BadLengthError(f"reading payload must be {READING_PAYLOAD_LEN} bytes, got {n}")
        *raw, mask = _PAYLOAD_STRUCT.unpack(payload)
        try:
            faults = FaultSet(mask)
        except ValueError as exc:
            raise FrameFieldError(str(exc)) from exc
        state = MotorState(**{name: value / scale
                              for value, (name, _, scale, _) in zip(raw, READING_FIELDS)})
        return DecodedFrame(msg_type, state, faults)
    if msg_type == MSG_POLL:
        if n != 0:
            raise BadLengthError(f"poll frames carry no payload, got {n} bytes")
        return DecodedFrame(MSG_POLL)
    raise FrameFieldError(f"unknown message type 0x{msg_type:02X}")


def scan_frames(data: bytes) -> list[DecodedFrame]:
    """Greedy scan of a byte stream for valid frames.

    Used to count delivered frames after a lossy transfer: resynchronizes
    on the next start byte whenever a candidate fails to decode.
    """
    frames: list[DecodedFrame] = []
    i = 0
    while i + FRAME_OVERHEAD <= len(data):
        if data[i] == SOF:
            end = i + FRAME_OVERHEAD + data[i + 3]
            if end <= len(data):
                try:
                    frames.append(decode_frame(data[i:end]))
                    i = end
                    continue
                except FrameError:
                    pass
        i += 1
    return frames


def classify_faults(state: MotorState, th: Thresholds, prev: FaultSet) -> FaultSet:
    """Threshold comparison with hysteresis on the clearing side.

    A bit sets as soon as its reading crosses the limit, regardless of the
    previous mask.  It clears only once the reading retreats past the limit
    by hysteresis_fraction * |limit|; in between it holds its prior value.
    The band is relative, so a zero limit has none.
    """
    h = th.hysteresis_fraction
    # Each rule's sign turns its limit into an upper one: a lower limit is
    # negated with its reading, which is exact, so one comparison serves both.
    rules = (
        (FaultSet.OVERTEMP, state.temp_c, th.temp_max_c, 1.0),
        (FaultSet.OVERSPEED, state.speed_rpm, th.speed_max_rpm, 1.0),
        (FaultSet.UNDERSPEED, state.speed_rpm, th.speed_min_rpm, -1.0),
        (FaultSet.OVERVOLT, state.voltage_v, th.volt_max_v, 1.0),
        (FaultSet.UNDERVOLT, state.voltage_v, th.volt_min_v, -1.0),
        (FaultSet.OVERCURRENT, state.current_a, th.curr_max_a, 1.0),
    )
    mask = 0
    for bit, value, limit, sign in rules:
        value, limit = sign * value, sign * limit
        held_from = limit * (1.0 - math.copysign(h, limit))  # h * |limit| short of the limit
        if value > limit or (prev.mask & bit and value >= held_from):
            mask |= bit
    return FaultSet(mask)


def render_display(state: MotorState, faults: FaultSet) -> tuple[str, str]:
    """Two 16-character lines for the status display.

    Line 1 carries temperature and speed, line 2 voltage, current, and
    either "OK" or the fault mask as "FLT:xx".  Lines are space-padded
    (and clipped) to exactly 16 characters.
    """
    line1 = f"{state.temp_c:6.1f}C {state.speed_rpm:5.0f}RPM"
    status = f"FLT:{faults.mask:02X}" if faults else "OK"
    line2 = f"{state.voltage_v:3.0f}V {state.current_a:3.1f}A {status}"
    return line1[:16].ljust(16), line2[:16].ljust(16)
