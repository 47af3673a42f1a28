"""perfbench/tracer.py times layers by rebinding names inside iptsim.

If the line chain stopped calling them through those names, the per-layer
metrics would silently read zero.
"""

import importlib
import sys
from pathlib import Path

from iptsim import channel, harness, modem, simulate, usart

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_every_layer_of_a_gap_point(baseline_cfg, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # import read-only
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    sample = usart.UsartRx.__dict__["sample"]
    lfilter = simulate.lfilter

    with tracer.Tracer() as t:
        t.begin_op(1)
        harness.ber_sweep(baseline_cfg, "gap", [0.05], bits_per_point=1000)
        layers = t.op_layers(1, 0, 0)

    for name in ("simulate.lfilter.calls", "modem.hysteresis_compare.calls",
                 "channel.voltage_gain.calls", "usart.UsartRx.sample.calls"):
        assert layers[name] > 0, name
    assert simulate.lfilter is lfilter
    assert simulate.hysteresis_compare is modem.hysteresis_compare
    assert simulate.voltage_gain is channel.voltage_gain
    assert usart.UsartRx.__dict__["sample"] is sample
    assert harness.run_line is simulate.run_line
