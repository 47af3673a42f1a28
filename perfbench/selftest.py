#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny workload sizes (about a minute).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks that every workload emits every metric of BENCHMARK.json with its
unit, that traced counts repeat exactly, that altered results fail the
output check, that only traced operations run wrapped code, and that the
benchmark refuses a directory without the iptsim sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from inputs import WORKLOADS

COUNTS = ("simulate.samples", "usart.UsartRx.sample.calls", "harness.max_data_rate.probes",
          "simulate.run_line.calls", "simulate.lfilter.calls", "usart.words_read")

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def tiny(workload: str, trace: bool, seed: int = 7) -> dict:
    return run.bench(workload, seed, seconds=0.1, trace=trace, size="tiny", probes=1)


def check_metrics(spec: dict) -> None:
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the three workloads")

    for workload in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = tiny(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == declared[kind] and result["correct"] and result["failed"] == 0,
                   f"{workload} trace={int(trace)}: every {kind} metric with its unit, "
                   f"{result['attempted']} operations correct")
            if trace:
                again = tiny(workload, trace)
                same = all(result["metrics"][k]["value"] == again["metrics"][k]["value"]
                           for k in COUNTS)
                expect(same, f"{workload}: traced counts repeat exactly across runs")
                expect(result["digest"] == again["digest"], f"{workload}: digest repeats")
                if workload == "rate_search":
                    expect(result["metrics"]["usart.UsartRx.sample.calls"]["value"] == 0,
                           "rate_search: UsartRx.sample is never called")


def check_altered_results() -> None:
    from iptsim.config import load_config
    import workloads

    for name in WORKLOADS:
        wl = workloads.WORKLOAD_TYPES[name]("tiny", 7, run.ROOT)
        cfg = load_config(str(run.OUT_DIR / f"{name}-tiny-seed7.cfg"))
        out = wl.run(cfg)
        expect(wl.check(out) == [], f"{name}: unaltered output passes the check")
        if name == "gap_sweep":
            first = out.value[0]
            out.value[0] = replace(first, bit_errors=1, frames_delivered=first.frames_sent + 1)
        elif name == "rate_search":
            cfg_, results = out.value
            label = next(iter(results))
            results[label] = replace(results[label], rate_bps=int(cfg_.tx.carrier_freq))
        else:
            cfg_, report, traces = out.value
            out.value = (cfg_, replace(report, sessions=report.sessions - 1),
                         [t for t in traces if t.stage != "reply_type" or t.value != 3])
        expect(wl.check(out) != [], f"{name}: altered output fails the check")

        class Drifting(type(wl)):
            calls = 0

            def run(self, cfg):
                out = super().run(cfg)
                Drifting.calls += 1
                if Drifting.calls > 1:
                    out.text += "drift"
                return out

        session = run.Session(Drifting("tiny", 7, run.ROOT), cfg)
        session.measure(0.0, 2)
        expect(session.ops[0]["problems"] == [] and session.ops[1]["problems"] != [],
               f"{name}: an operation whose output drifts within a seed fails")


def check_tracing_scope() -> None:
    from iptsim import harness, simulate, usart
    from iptsim.config import load_config
    import workloads
    from tracer import Tracer

    def bound() -> list:
        return [harness.run_line, harness.scan_frames, harness.encode_frame,
                simulate.lfilter, simulate.hysteresis_compare, usart.UsartRx.sample]

    original = bound()
    unwrapped: list[bool] = []

    class Watched(workloads.Scenario):
        def run(self, cfg):
            unwrapped.append(all(a is b for a, b in zip(bound(), original)))
            return super().run(cfg)

    cfg = load_config(str(run.OUT_DIR / "scenario-tiny-seed7.cfg"))
    run.Session(Watched("tiny", 7, run.ROOT), cfg).measure(0.0, 2)
    run.Session(Watched("tiny", 7, run.ROOT), cfg).measure(0.0, 2, Tracer())
    expect(unwrapped == [True, True, True, False],
           "untraced operations run unwrapped iptsim, traced ones wrapped")
    expect(all(a is b for a, b in zip(bound(), original)) and harness.run_line is simulate.run_line,
           "after a traced run the iptsim modules are unwrapped")


def check_refuses_bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "scenario",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "a directory holding only the benchmark exits non-zero without a result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_altered_results()
    check_tracing_scope()
    check_refuses_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
