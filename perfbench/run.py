#!/usr/bin/env python3
"""iptsim benchmark: run one workload through the harness API and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gap_sweep --seed 1 --seconds 25 --trace 0

Load is a closed loop: one caller runs one operation at a time in this
single process, with no pool.  With --trace 0 the operations run unwrapped
and the end-to-end metrics are reported; with --trace 1 every second
operation runs under the tracer, and the per-layer metrics are reported.
The last line of stdout is one JSON object; a fuller record, with the
environment and, when tracing, every span, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, config_text, master_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 7   # fresh processes timed per run; setup_s is their median
MIN_OPS = 3        # timed operations per untraced run, even past --seconds


class MissingSourceError(RuntimeError):
    """The checkout holds no iptsim source tree to benchmark."""


def setup_probe(src: Path, cfg_path: Path) -> dict[str, float]:
    """Time import plus config loading in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(src), str(cfg_path)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def environment(seed: int) -> dict[str, object]:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "master_seed": master_seed(seed),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _golden(workload: str, seed: int, digest: str | None) -> str:
    """Whether the output matches the digest recorded at the seed commit."""
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    recorded = golden.get(workload, {}).get(str(master_seed(seed)))
    if recorded is None or digest is None:
        return "not recorded"
    return "match" if recorded == digest else "differs"


class Session:
    """Operations of one run, with the determinism check across them."""

    def __init__(self, workload, cfg):
        self.workload = workload
        self.cfg = cfg
        self.reference: str | None = None  # digest of the first operation
        self.ops: list[dict] = []

    def measure(self, budget_s: float, min_ops: int, tracer=None, between=None) -> None:
        """Run operations until the next one would take their time past budget_s.

        With a tracer, every second operation runs traced, so that plain and
        traced operations sample the same host conditions.  between() runs
        after each operation, outside the timed span.
        """
        while True:
            run_id = len(self.ops)
            traced = tracer is not None and run_id % 2 == 1
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.begin_op(run_id)
                    with tracer:
                        out = tracer.span("bench.op", self.workload.run, self.cfg)
                else:
                    out = self.workload.run(self.cfg)
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            problems = self.workload.check(out) if out else [error]
            op = {"seconds": seconds, "traced": traced,
                  "digest": out.digest if out else None, "problems": problems}
            if out:
                if self.reference is None:
                    self.reference = out.digest
                elif out.digest != self.reference:
                    problems.append("output differs from the first operation of this seed")
                if traced:
                    op["layers"] = tracer.op_layers(run_id, out.frames_sent, out.frames_delivered)
            self.ops.append(op)
            if between:
                between()
            spent = sum(o["seconds"] for o in self.ops)
            typical = statistics.median(o["seconds"] for o in self.ops)
            if len(self.ops) >= min_ops and spent + typical > budget_s:
                return


def bench(workload_name: str, seed: int, seconds: float, trace: bool,
          size: str = "full", probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return the full result record."""
    src = ROOT / "src"
    base_cfg = ROOT / "configs" / "baseline.cfg"
    if not (src / "iptsim" / "__init__.py").is_file() or not base_cfg.is_file():
        raise MissingSourceError(f"{ROOT} holds no src/iptsim and configs/baseline.cfg")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload_name}-{size}-seed{seed}"
    cfg_path = OUT_DIR / f"{stem}.cfg"
    cfg_path.write_text(config_text(base_cfg.read_text(encoding="utf-8"), workload_name,
                                    size, seed), encoding="utf-8")

    # Set-up is probed between operations as well as before them, so that
    # setup_s samples the host over the whole run rather than one moment.
    setups = [setup_probe(src, cfg_path)]

    def probe_more() -> None:
        if len(setups) < probes:
            setups.append(setup_probe(src, cfg_path))

    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from iptsim.config import load_config
    import workloads
    from tracer import Tracer, median_layers

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOAD_TYPES[workload_name](size, seed, ROOT)
    session = Session(workload, load_config(str(cfg_path)))
    spans = None
    if trace:
        tracer = Tracer()
        session.measure(seconds, 2, tracer, between=probe_more)
        spans = tracer.spans_json()
        plain = [op for op in session.ops if not op["traced"]]
        traced = [op for op in session.ops if op["traced"]]
        layers = median_layers([op["layers"] for op in traced if "layers" in op] or [{}])
        layers["import.iptsim_s"] = statistics.median(s["import_s"] for s in setups)
        layers["config.load_config.busy_s"] = statistics.median(s["config_s"] for s in setups)
        layers["trace.overhead_frac"] = (statistics.median(op["seconds"] for op in traced)
                                         / statistics.median(op["seconds"] for op in plain) - 1)
        values, declared = layers, spec["per_layer"]
    else:
        session.measure(seconds, MIN_OPS, between=probe_more)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(op["seconds"] for op in session.ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]
    # BENCHMARK.json names the metrics and their units.  Per-layer values are
    # missing only when no traced operation succeeded, and then correct is false.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}

    while len(setups) < probes:
        probe_more()
    failed = sum(1 for op in session.ops if op["problems"])
    result = {
        "workload": workload_name, "size": size, "trace": int(trace),
        "environment": environment(seed),
        "load": "closed loop: 1 caller, 1 operation at a time, 1 process, no pool",
        "waiting": "none: nothing waits on a queue or another worker",
        "correct": failed == 0, "attempted": len(session.ops), "failed": failed,
        "failed_frac": failed / len(session.ops),
        "digest": session.reference,
        "golden": (_golden(workload_name, seed, session.reference) if size == "full"
                   else "not recorded"),
        "setup_probes": setups, "ops": session.ops, "metrics": metrics,
    }
    (OUT_DIR / f"result-{stem}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    if spans is not None:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(spans), encoding="utf-8")
    return result


def report(result: dict) -> None:
    """Human-readable summary, then the one-line JSON result last."""
    env = result["environment"]
    print(f"workload {result['workload']}  seed {env['seed']} "
          f"(sim.master_seed {env['master_seed']})  trace {result['trace']}")
    print(f"load: {result['load']}")
    print("env: " + json.dumps(env))
    times = [op["seconds"] for op in result["ops"] if not op["traced"]]
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"wall_s over {len(times)} untraced operations: median {statistics.median(times):.4f} s, "
          f"min {min(times):.4f} s, max {max(times):.4f} s "
          "(too few samples for a high percentile)")
    print(f"{'failed_frac':40s} {result['failed_frac']:.6g} fraction "
          f"({result['failed']}/{result['attempted']} operations)")
    for op in result["ops"]:
        for problem in op["problems"]:
            print(f"FAILED: {problem}")
    print(f"waiting: {result['waiting']}")
    print(f"digest {result['digest']}  golden: {result['golden']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1234567)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
