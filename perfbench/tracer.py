"""Per-layer tracing of iptsim from outside the program.

While a Tracer is active it rebinds the module and class attributes that
iptsim's callers look up (``iptsim.harness.run_line``,
``iptsim.simulate.lfilter``, ``UsartRx.sample`` ...) to timing wrappers, and
puts the originals back on exit.  Coarse calls become spans (name, start,
end, parent, run id, work units); per-sub-sample calls are only counted and
timed in aggregate, since a span each would cost more than the call.
Everything stays in memory until the benchmark writes it out.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

from iptsim import harness, simulate, usart

_clock = time.perf_counter_ns


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: int         # the benchmark operation the span belongs to
    work: int           # samples, bytes or records handled, where meaningful


def _run_line_samples(line_bits, link, tx, *args, **kwargs) -> int:
    return round(len(line_bits) * tx.sample_rate / tx.bit_rate)


# (owner, attribute, span name, work units from the call's arguments)
_SPANS = (
    (harness, "ber_sweep", "harness.ber_sweep", None),
    (harness, "max_data_rate", "harness.max_data_rate", None),
    (harness, "run_scenario", "harness.run_scenario", None),
    (harness, "emit_csv", "harness.emit_csv", lambda records, *a, **k: len(records)),
    (harness, "run_line", "simulate.run_line", _run_line_samples),
    (harness, "scan_frames", "telemetry.scan_frames", lambda data: len(data)),
    (simulate, "lfilter", "simulate.lfilter", lambda b, a, x, **k: len(x)),
    (simulate, "hysteresis_compare", "modem.hysteresis_compare", lambda x, *a, **k: len(x)),
)

# (owner, attribute, counter name, work units from (args, result))
_COUNTERS = (
    (usart.UsartRx, "sample", "usart.UsartRx.sample", None),
    (usart.UsartRx, "read", "usart.UsartRx.read", lambda args, word: int(word[1])),
    (harness, "frame_line_bits", "harness.frame_line_bits", lambda args, bits: len(args[0])),
    (harness, "encode_frame", "telemetry.codec", None),
    (harness, "encode_poll", "telemetry.codec", None),
    (harness, "classify_faults", "telemetry.codec", None),
    (harness, "render_display", "telemetry.codec", None),
    (simulate, "voltage_gain", "channel.voltage_gain", None),
)

EXPERIMENTS = ("harness.ber_sweep", "harness.max_data_rate", "harness.run_scenario")


class Tracer:
    """Context manager that installs the wrappers and collects what they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        # name -> [calls, busy ns, work] for the current operation
        self.counters: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, work in _SPANS:
                self._install(owner, attr, self._span_wrapper(name, getattr(owner, attr), work))
            for owner, attr, name, work in _COUNTERS:
                wrapper = self._counter_wrapper(self.counters[name], getattr(owner, attr), work)
                self._install(owner, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span recorded under the current run id."""
        return self._span_wrapper(name, fn, None)(*args, **kwargs)

    def _span_wrapper(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, 0, 0, stack[-1] if stack else None, self.run_id,
                              work(*args, **kwargs) if work else 0))
            stack.append(index)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[index].start_ns, spans[index].end_ns = start, end
        return wrapper

    @staticmethod
    def _counter_wrapper(stat, fn, work):
        def wrapper(*args, **kwargs):
            start = _clock()
            result = fn(*args, **kwargs)
            stat[1] += _clock() - start
            stat[0] += 1
            if work:
                stat[2] += work(args, result)
            return result
        return wrapper

    def begin_op(self, run_id: int) -> None:
        self.run_id = run_id
        for stat in self.counters.values():
            stat[:] = [0, 0, 0]

    def op_layers(self, run_id: int, frames_sent: int, frames_delivered: int) -> dict[str, float]:
        """Per-layer metrics of one operation; call before the next begin_op."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.run_id == run_id]
        calls = defaultdict(int)
        busy = defaultdict(int)
        work = defaultdict(int)
        self_ns = defaultdict(int)
        child_ns = defaultdict(int)
        probes = 0
        for _, s in spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
                parent = self.spans[s.parent].name
                if s.name == "simulate.run_line" and parent == "harness.max_data_rate":
                    probes += 1
        for i, s in spans:
            calls[s.name] += 1
            busy[s.name] += s.end_ns - s.start_ns
            work[s.name] += s.work
            self_ns[s.name] += s.end_ns - s.start_ns - child_ns[i]
        c = self.counters
        usart_ns = c["usart.UsartRx.sample"][1] + c["usart.UsartRx.read"][1]
        run_line_self = self_ns["simulate.run_line"] - usart_ns - c["channel.voltage_gain"][1]
        harness_self = sum(self_ns[name] for name in EXPERIMENTS) - c["telemetry.codec"][1]
        samples = work["simulate.run_line"]
        words, ferr = c["usart.UsartRx.read"][0], c["usart.UsartRx.read"][2]
        bytes_sent = c["harness.frame_line_bits"][2]
        return {
            "harness.self_s": harness_self / 1e9,
            "harness.emit_csv.busy_s": busy["harness.emit_csv"] / 1e9,
            "harness.max_data_rate.probes": probes,
            "simulate.run_line.calls": calls["simulate.run_line"],
            "simulate.run_line.busy_s": busy["simulate.run_line"] / 1e9,
            "simulate.run_line.self_s": run_line_self / 1e9,
            "simulate.samples": samples,
            "simulate.run_line.self_ns_per_sample": _ratio(run_line_self, samples),
            "simulate.lfilter.calls": calls["simulate.lfilter"],
            "simulate.lfilter.busy_s": busy["simulate.lfilter"] / 1e9,
            "simulate.lfilter.ns_per_sample_section":
                _ratio(busy["simulate.lfilter"], work["simulate.lfilter"]),
            "modem.hysteresis_compare.calls": calls["modem.hysteresis_compare"],
            "modem.hysteresis_compare.busy_s": busy["modem.hysteresis_compare"] / 1e9,
            "modem.hysteresis_compare.ns_per_sample":
                _ratio(busy["modem.hysteresis_compare"], work["modem.hysteresis_compare"]),
            "channel.voltage_gain.calls": c["channel.voltage_gain"][0],
            "usart.UsartRx.sample.calls": c["usart.UsartRx.sample"][0],
            "usart.UsartRx.sample.busy_s": c["usart.UsartRx.sample"][1] / 1e9,
            "usart.UsartRx.sample.ns_per_call":
                _ratio(c["usart.UsartRx.sample"][1], c["usart.UsartRx.sample"][0]),
            "usart.bytes_sent": bytes_sent,
            "usart.words_read": words,
            "usart.ferr_words": ferr,
            "usart.word_yield": _ratio(words - ferr, bytes_sent),
            "telemetry.scan_frames.busy_s": busy["telemetry.scan_frames"] / 1e9,
            "telemetry.scan_frames.bytes_in": work["telemetry.scan_frames"],
            "telemetry.frames_sent": frames_sent,
            "telemetry.frame_yield": _ratio(frames_delivered, frames_sent),
            "telemetry.codec.busy_s": c["telemetry.codec"][1] / 1e9,
        }

    def spans_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when nothing was done (den == 0)."""
    return num / den if den else 0.0


def median_layers(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer metric over the traced operations; counts stay whole."""
    medians = {}
    for key in per_op[0]:
        values = [op[key] for op in per_op]
        whole = all(isinstance(v, int) for v in values)
        medians[key] = statistics.median_low(values) if whole else statistics.median(values)
    return medians
