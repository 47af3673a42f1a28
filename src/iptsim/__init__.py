"""Simulator and protocol library for a contactless motor-monitoring link.

Layers: an inductively coupled channel, an on-off-keyed modem, a
PIC16-style USART, a telemetry/fault application layer, and a harness
that measures bit-error rate, maximum data rate, and air-gap tolerance.
"""

# The modules' public names, for `from iptsim import ...`.  Importing the
# package loads every module, the simulator and scipy's kernels included.
# No caller needs them, but perfbench's process loads scipy through them
# before hashlib; the other order reads 0.3 MiB more scenario peak_rss_mb
# (heap layout, ROADMAP item 1), so they stay until perfbench loads it first.
from .channel import (LinkParams, coupling_coefficient, mutual_inductance,
                      resonant_frequency, tank_gain, voltage_gain)
from .config import ConfigError, ScenarioConfig, ScriptStep, build_config, load_config
from .harness import (MaxRateResult, NoFeasibleRateError, ScenarioReport,
                      SweepResult, TraceRecord, ber_sweep, emit_csv,
                      max_data_rate, run_scenario)
from .modem import RxParams, TxParams
from .seeds import derive_seed, mix64
from .simulate import as_bits
from .telemetry import (FaultSet, MotorState, Thresholds, classify_faults,
                        decode_frame, encode_frame, encode_poll, render_display)
from .usart import (UsartConfig, UsartRx, UsartTx, actual_baud, brg_divisor,
                    frame_encode)
