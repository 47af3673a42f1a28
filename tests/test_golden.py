"""Golden outputs: hashes of a small fixed workload, pinned across changes.

test_c7 only compares two runs inside one process, so it cannot see output
drift between versions of the code.  These digests were recorded once and
must stay unchanged unless a change to the simulated output is intended and
declared.
"""

import hashlib

from iptsim.config import ScriptStep, build_config
from iptsim.harness import ber_sweep, emit_csv, max_data_rate, run_scenario
from iptsim.telemetry import MotorState

GOLDEN_SHA256 = {
    "gap_sweep": "07b3295344361f8d963f4d82416fa6939ea8b8ff8b19e5cf2f2f784079cca5f7",
    "max_data_rate": "3a2da904c29f4272ae0af4c77ad9251a136bbe758b855e2f5aad7f4c1ea86bdc",
    "scenario": "b7485f1d2bea31404bef99e5504eb562147deddb2f4d415f18baa7ab0a18f20d",
    "lossy_scenario": "077b171714aeafc532caa907bdc128fd58c7c1267dcc70e4377fb6e39956008d",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_gap_sweep(baseline_cfg):
    results = ber_sweep(baseline_cfg, "gap", [0.05, 0.10, 0.15], bits_per_point=1000)
    assert _sha256(emit_csv(results)) == GOLDEN_SHA256["gap_sweep"]


def test_golden_max_data_rate(baseline_cfg):
    result = max_data_rate(baseline_cfg, 1e-3, bits_per_probe=1000, min_rate=250)
    assert _sha256(repr(result)) == GOLDEN_SHA256["max_data_rate"]


def test_golden_scenario():
    # The second reading is over temperature, so a fault-alarm frame goes out.
    script = [ScriptStep(0.0, MotorState(25.0, 1450.0, 230.0, 1.5)),
              ScriptStep(1.0, MotorState(90.0, 1450.0, 230.0, 1.5))]
    report, traces = run_scenario(build_config({"sim.duration_s": 2.0}, script))
    assert _sha256(repr(report) + "\n" + emit_csv(traces)) == GOLDEN_SHA256["scenario"]


def test_golden_lossy_scenario():
    # At 0.1455 m, with the baseline's derived noise and threshold held, every
    # poll arrives but only 8 of the 12 replies do, so frames are lost inside
    # run_scenario.  A 95 degC reading from 3 s raises an alarm.
    script = [ScriptStep(0.0, MotorState(25.0, 1450.0, 230.0, 1.5)),
              ScriptStep(3.0, MotorState(95.0, 1450.0, 230.0, 1.5))]
    base = build_config({"sim.duration_s": 12.0}, script)
    cfg = build_config({"sim.duration_s": 12.0, "link.gap": 0.1455,
                        "link.noise_rms": base.link.noise_rms,
                        "rx.threshold": base.rx.threshold}, script)
    report, traces = run_scenario(cfg)
    assert _sha256(repr(report) + "\n" + emit_csv(traces)) == GOLDEN_SHA256["lossy_scenario"]

    def delivered(stage):
        return sum(int(r.value) for r in traces if r.stage == stage)

    polls = delivered("poll_delivered")
    replies = delivered("reply_delivered")
    assert (report.sessions, polls, replies) == (12, 12, 8)
    assert report.frames_sent == report.sessions + polls
    assert report.frames_delivered == polls + replies
