"""The three benchmark workloads: one operation each, its digest and its checks.

Each operation goes through iptsim's public harness API, looking functions
up on the `iptsim.harness` module at call time so the tracer's wrappers
apply.  Checks return a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from iptsim import harness
from iptsim.telemetry import MSG_FAULT_ALARM, MSG_READING

from inputs import BASELINE_LABEL, REFERENCE_SEED, SIZES, master_seed

# Acceptance bounds from the repo: error-free links up to a 10 cm gap, and the
# carrier must stay at least 10x the bit rate.
ERROR_FREE_GAP_M = 0.10
MIN_RATE_BPS = 250


@dataclass
class Output:
    """What one operation produced, as checked and digested."""

    text: str                 # canonical text of the simulated output
    frames_sent: int
    frames_delivered: int
    value: object             # the harness's own return value

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


class Workload:
    name = ""

    def __init__(self, size: str, seed: int, root: Path):
        self.size = size
        self.seed = seed
        self.root = root
        self.params = SIZES[self.name][size]

    def run(self, cfg) -> Output:
        raise NotImplementedError

    def check(self, out: Output) -> list[str]:
        raise NotImplementedError


class GapSweep(Workload):
    name = "gap_sweep"

    def run(self, cfg) -> Output:
        results = harness.ber_sweep(cfg, "gap", self.params["gaps"],
                                    bits_per_point=self.params["bits_per_point"])
        return Output(harness.emit_csv(results),
                      sum(r.frames_sent for r in results),
                      sum(r.frames_delivered for r in results), results)

    def check(self, out: Output) -> list[str]:
        problems = []
        if [r.var for r in out.value] != [float(g) for g in self.params["gaps"]]:
            problems.append("sweep points differ from the gap list")
        for r in out.value:
            if not 0 <= r.frames_delivered <= r.frames_sent:
                problems.append(f"gap {r.var}: {r.frames_delivered}/{r.frames_sent} frames")
            if r.var <= ERROR_FREE_GAP_M and (r.bit_errors or r.frames_delivered != r.frames_sent):
                problems.append(f"gap {r.var}: {r.bit_errors} bit errors, "
                                f"{r.frames_delivered}/{r.frames_sent} frames")
        return problems


class RateSearch(Workload):
    name = "rate_search"

    def __init__(self, size: str, seed: int, root: Path):
        super().__init__(size, seed, root)
        self.reference = self._reference()

    def run(self, cfg) -> Output:
        p = self.params
        res = harness.max_data_rate(cfg, p["ber_ceiling"], bits_per_probe=p["bits_per_probe"],
                                    min_rate=p["min_rate"])
        results = {BASELINE_LABEL: res}
        text = "".join(f"{label},{r.rate_bps},{r.resolution_bps}\n"
                       for label, r in results.items())
        return Output(text, 0, 0, (cfg, results))

    def _reference(self) -> dict[str, tuple[int, int]]:
        """Rows of results/rate_study.csv, when this run reproduces its settings."""
        path = self.root / "results" / "rate_study.csv"
        if (self.size != "full" or master_seed(self.seed) != REFERENCE_SEED
                or not path.is_file()):
            return {}
        rows = {}
        # The setup labels hold unquoted commas, so split from the right.
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            label, rate, resolution = line.rsplit(",", 2)
            rows[label] = (int(rate), int(resolution))
        return rows

    def check(self, out: Output) -> list[str]:
        cfg, results = out.value
        problems = []
        cap = cfg.tx.carrier_freq / 10
        for label, r in results.items():
            if not MIN_RATE_BPS <= r.rate_bps <= cap:
                problems.append(f"{label}: {r.rate_bps} bit/s outside [{MIN_RATE_BPS}, {cap:g}]")
        for label, r in results.items():
            expected = self.reference.get(label)
            if expected and (r.rate_bps, r.resolution_bps) != expected:
                problems.append(f"{label}: {r.rate_bps}/{r.resolution_bps} differs from "
                                f"results/rate_study.csv {expected}")
        return problems


class Scenario(Workload):
    name = "scenario"

    def run(self, cfg) -> Output:
        report, traces = harness.run_scenario(cfg)
        text = repr(report) + "\n" + harness.emit_csv(traces)
        return Output(text, report.frames_sent, report.frames_delivered, (cfg, report, traces))

    def check(self, out: Output) -> list[str]:
        cfg, report, traces = out.value
        problems = []
        expected = math.ceil(cfg.duration_s / cfg.poll_interval_s)
        if report.sessions != expected:
            problems.append(f"{report.sessions} sessions, expected {expected}")
        if not 0 <= report.frames_delivered <= report.frames_sent:
            problems.append(f"{report.frames_delivered}/{report.frames_sent} frames")
        replies = {int(t.value) for t in traces if t.stage == "reply_type"}
        if not {MSG_READING, MSG_FAULT_ALARM} <= replies:
            problems.append(f"reply types sent: {sorted(replies)}, expected readings and alarms")
        return problems


WORKLOAD_TYPES = {w.name: w for w in (GapSweep, RateSearch, Scenario)}
