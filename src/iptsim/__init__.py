"""Simulator and protocol library for a contactless motor-monitoring link.

Layers: an inductively coupled channel, an on-off-keyed modem, a
PIC16-style USART, a telemetry/fault application layer, and a harness
that measures bit-error rate, maximum data rate, and air-gap tolerance.
"""

from .channel import (LinkParams, coupling_coefficient, mutual_inductance,
                      resonant_frequency, tank_gain, voltage_gain)
from .config import ConfigError, ScenarioConfig, ScriptStep, build_config, load_config
from .harness import (MaxRateResult, NoFeasibleRateError, ScenarioReport,
                      SweepResult, TraceRecord, ber_sweep, emit_csv,
                      max_data_rate, run_scenario)
from .modem import RxParams, TxParams
from .seeds import derive_seed, mix64
from .simulate import as_bits
from .telemetry import (FaultSet, MotorState, ProximityParams, Thresholds,
                        classify_faults, decode_frame, encode_frame,
                        encode_poll, proximity_pulses, render_display,
                        speed_from_pulses)
from .usart import (UsartConfig, UsartRx, UsartTx, actual_baud, brg_divisor,
                    frame_encode)

__all__ = [
    "ConfigError", "FaultSet", "LinkParams",
    "MaxRateResult", "MotorState", "NoFeasibleRateError", "ProximityParams",
    "RxParams", "ScenarioConfig", "ScenarioReport", "ScriptStep",
    "SweepResult", "Thresholds", "TraceRecord", "TxParams", "UsartConfig",
    "UsartRx", "UsartTx", "actual_baud", "as_bits", "ber_sweep",
    "brg_divisor", "build_config", "classify_faults", "coupling_coefficient",
    "decode_frame", "derive_seed", "emit_csv", "encode_frame", "encode_poll",
    "frame_encode", "load_config", "max_data_rate", "mix64",
    "mutual_inductance", "proximity_pulses", "render_display",
    "resonant_frequency", "run_scenario", "speed_from_pulses", "tank_gain",
    "voltage_gain",
]
