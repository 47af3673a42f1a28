"""The streamed line chain must match the whole-array reference in conftest."""

import json
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iptsim import simulate
from iptsim.config import build_config, mark_envelope, noise_rms_for_snr
from iptsim.harness import frame_line_bits
from iptsim.simulate import _LineChain, run_line
from iptsim.usart import UsartRx

from conftest import reference_logic, reference_mids

ROOT = Path(__file__).resolve().parent.parent

# Run in a fresh interpreter, so no other test has imported scipy.signal yet.
_KERNELS_ALONE = """
import json, sys
sys.path.insert(0, "src")
import numpy as np
from iptsim import simulate
from iptsim.config import load_config
from iptsim.modem import smoothing_coeffs
cfg = load_config("configs/baseline.cfg")
alone = "scipy.signal" not in sys.modules
simulate.run_line(np.tile([1, 0], 50), cfg.link, cfg.tx, cfg.rx, 3)
import scipy.signal
b, a = smoothing_coeffs(cfg.rx.envelope_tau, cfg.tx.sample_rate)
x = np.random.default_rng(4).normal(size=5000)
z = np.array([0.3])
want, got = scipy.signal.lfilter(b, a, x, zi=z), simulate.lfilter(b, a, x, zi=z)
sos = np.tile(np.concatenate((b, [0.0, 0.0], a, [0.0])), (2, 1))
print(json.dumps({
    "alone": alone,
    "lfilter": [np.array_equal(w, g) for w, g in zip(want, got)],
    "sosfilt": np.array_equal(scipy.signal.sosfilt(sos, x),
                              scipy.signal.lfilter(b, a, scipy.signal.lfilter(b, a, x))),
}))
"""


class _RecordingRx(UsartRx):
    """Receiver that keeps every x16 sample it is fed."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.levels = []

    def sample(self, level):
        self.levels.append(level)
        super().sample(level)


def test_run_line_matches_composed_ops_noiseless(baseline_cfg):
    cfg = replace(baseline_cfg, link=replace(baseline_cfg.link, noise_rms=0.0))
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, 40).astype(np.uint8)
    mids, _ = run_line(bits, cfg.link, cfg.tx, cfg.rx, 0)
    assert np.array_equal(mids, reference_mids(bits, cfg, 0))


def test_run_line_matches_composed_ops_noisy_multichunk(baseline_cfg):
    # 600 bits forces several chunks; the carried filter and RNG state must
    # reproduce the single-shot reference bit for bit.
    cfg = baseline_cfg
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2, 600).astype(np.uint8)
    mids, _ = run_line(bits, cfg.link, cfg.tx, cfg.rx, 77)
    assert np.array_equal(mids, reference_mids(bits, cfg, 77))


@pytest.mark.parametrize("bit_rate,chunk_samples", [
    pytest.param(413.0, None, id="413.0"),
    pytest.param(1000.0, None, id="1000.0"),
    pytest.param(413.0, 1, id="413.0-one-bit-chunks"),
    pytest.param(1000.0, 1, id="1000.0-one-bit-chunks"),
])
def test_run_line_x16_feed_matches_loop_reference(baseline_cfg, monkeypatch, bit_rate,
                                                  chunk_samples):
    # The receiver must see the reference logic level at round(j * spb/16)
    # for every grid point j inside the stream, found here with a scalar loop.
    # At 1000 bit/s the stride is 62.5 samples, so every other point is a tie.
    # One-bit chunks put a chunk boundary after every bit.
    if chunk_samples is not None:
        monkeypatch.setattr(simulate, "_CHUNK_SAMPLES", chunk_samples)
    cfg = replace(baseline_cfg, tx=replace(baseline_cfg.tx, bit_rate=bit_rate))
    bits = np.random.default_rng(21).integers(0, 2, 600).astype(np.uint8)
    rx = _RecordingRx(cfg.usart)
    run_line(bits, cfg.link, cfg.tx, cfg.rx, 77, usart_rx=rx)
    logic = reference_logic(bits, cfg, 77)
    stride = cfg.tx.sample_rate / cfg.tx.bit_rate / 16
    positions = []
    while round(len(positions) * stride) < logic.size:
        positions.append(round(len(positions) * stride))
    expected = logic[positions].astype(int).tolist()
    assert rx.levels == expected


def test_run_line_deterministic(baseline_cfg):
    cfg = baseline_cfg
    bits = np.random.default_rng(3).integers(0, 2, 300).astype(np.uint8)
    a, _ = run_line(bits, cfg.link, cfg.tx, cfg.rx, 5)
    b, _ = run_line(bits, cfg.link, cfg.tx, cfg.rx, 5)
    assert np.array_equal(a, b)


def test_run_line_feeds_usart(baseline_cfg):
    from iptsim.usart import frame_encode
    cfg = baseline_cfg
    bits = [1] * 12 + frame_encode(0xC3, None, cfg.usart) + [1] * 4
    rx = UsartRx(cfg.usart)
    _, received = run_line(np.array(bits, dtype=np.uint8), cfg.link, cfg.tx,
                           cfg.rx, 13, usart_rx=rx)
    assert [(w & 0xFF, f) for w, f in received] == [(0xC3, False)]


@settings(max_examples=30, deadline=None)
@given(budget=st.integers(0, 21).flatmap(lambda e: st.integers(2 ** e, 2 ** (e + 1))),
       payload=st.binary(min_size=1, max_size=3), gap=st.sampled_from([0.05, 0.15]),
       bit_rate=st.sampled_from([50.0, 250.0]))
def test_run_line_independent_of_chunk_size(baseline_cfg, budget, payload, gap, bit_rate):
    # The sample budget runs from one sample (one-bit chunks) past the whole
    # stream.  Every bit edge at these rates lies on a carrier zero crossing,
    # so chunks start there too.  At 0.15 m the link makes errors, so the
    # decisions depend on the noise draw and on filter, comparator and x16
    # grid state carried across chunks.
    cfg = replace(baseline_cfg, link=replace(baseline_cfg.link, gap=gap),
                  tx=replace(baseline_cfg.tx, bit_rate=bit_rate))
    bits = frame_line_bits(payload, cfg)

    def run():
        return run_line(bits, cfg.link, cfg.tx, cfg.rx, 13,
                        usart_rx=UsartRx(cfg.usart))

    ref_mids, ref_words = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK_SAMPLES", budget)
        mids, words = run()
    assert np.array_equal(mids, ref_mids)
    assert words == ref_words


@pytest.mark.parametrize("carrier,k0", [(10e3, 0), (10e3, 3), (20e3, 1), (40e3, 7),
                                        (7777.0, 125)])
def test_drive_matches_sin_carrier_on_every_sample(baseline_cfg, carrier, k0):
    # At 250 bit/s a bit is 4000 samples, so every k0 starts on a nominal
    # zero; at 7777 Hz (128.6 samples per cycle) sample 500 000 is half-cycle
    # 7777.  The first 100 bits are ones, so the carrier is gated through for
    # 400 k samples; the reference evaluates np.sin on all 1.2 M samples.
    tx = replace(baseline_cfg.tx, carrier_freq=carrier)
    chain = _LineChain(baseline_cfg.link, tx, baseline_cfg.rx, 0)
    bits = np.random.default_rng(5).integers(0, 2, 300).astype(np.uint8)
    bits[:100] = 1
    x, n0, n1 = chain.drive(bits, k0)
    edges = np.rint((np.arange(bits.size + 1) + k0) * chain.spb).astype(np.int64)
    on = np.repeat(bits.astype(bool), np.diff(edges))
    n = np.arange(n0, n1)
    assert n.size >= 1_000_000
    assert np.array_equal(x, on & (np.sin(chain.omega * n) > 0))


@pytest.mark.parametrize("bit_rate", [50.0, 250.0, 1000.0])
def test_run_line_memory_does_not_grow_as_bit_rate_falls(baseline_cfg, bit_rate):
    # Chunks are sized in samples, so the working set of a 600-bit stream
    # stays small even at 20 000 samples per bit.
    cfg = replace(baseline_cfg, tx=replace(baseline_cfg.tx, bit_rate=bit_rate))
    bits = np.random.default_rng(9).integers(0, 2, 600).astype(np.uint8)
    tracemalloc.start()
    try:
        run_line(bits, cfg.link, cfg.tx, cfg.rx, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_run_line_working_set_is_five_chunk_arrays(baseline_cfg):
    # At 250 bit/s a chunk is 16 bits of 4000 samples: 0.49 MiB of float64.
    # Two chained HF lfilter sections, a separate rectifier output and a
    # chunk-sized gain * x and noise sum held about six of them at the peak
    # (3.01 MiB).  One sosfilt call, the rectifier in place and the drive
    # added into the noise draw leave five (2.53-2.61 MiB).  Running the HF
    # sections in place on the link output frees one more (2.21-2.22 MiB), and
    # a bool switch state (one byte a sample) in place of the float drive
    # waveform, with the link level added into the draw by one masked add,
    # frees the drive's (1.78-1.80 MiB).
    cfg = replace(baseline_cfg, tx=replace(baseline_cfg.tx, bit_rate=250.0))
    bits = np.random.default_rng(9).integers(0, 2, 600).astype(np.uint8)
    tracemalloc.start()
    try:
        run_line(bits, cfg.link, cfg.tx, cfg.rx, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * 2 ** 20


def test_filter_kernels_load_without_scipy_signal():
    # Importing scipy.signal costs about a second and 75 MiB; the chain needs
    # only its two compiled kernels.  Loading them first must not break the
    # package for a later importer.
    out = subprocess.run([sys.executable, "-c", _KERNELS_ALONE], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert json.loads(out) == {"alone": True, "lfilter": [True, True], "sosfilt": True}


def test_missing_filter_kernel_names_itself():
    with pytest.raises(ImportError, match="_no_such_kernel"):
        simulate._load_kernel("_no_such_kernel")


def _recording(calls, fn):
    """Wrap fn so each call appends the calling thread's identifier to calls."""
    def wrapper(*args, **kwargs):
        calls.append(threading.get_ident())
        return fn(*args, **kwargs)
    return wrapper


def test_run_line_traced_stages_stay_on_calling_thread(baseline_cfg, monkeypatch):
    # perfbench's tracer rebinds these names and keeps one span stack, so
    # they must never run on the pipeline's worker; the noise draw must.
    cfg = baseline_cfg
    bits = frame_line_bits(b"\x5a\xc3\x0f", cfg)
    traced = {name: [] for name in ("lfilter", "hysteresis_compare", "sample", "read", "couple")}
    monkeypatch.setattr(simulate, "lfilter", _recording(traced["lfilter"], simulate.lfilter))
    monkeypatch.setattr(simulate, "hysteresis_compare",
                        _recording(traced["hysteresis_compare"], simulate.hysteresis_compare))
    monkeypatch.setattr(UsartRx, "sample", _recording(traced["sample"], UsartRx.sample))
    monkeypatch.setattr(UsartRx, "read", _recording(traced["read"], UsartRx.read))
    monkeypatch.setattr(_LineChain, "couple", _recording(traced["couple"], _LineChain.couple))
    _, received = run_line(bits, cfg.link, cfg.tx, cfg.rx, 13,
                           usart_rx=UsartRx(cfg.usart))
    assert [w & 0xFF for w, _ in received] == [0x5A, 0xC3, 0x0F]
    caller = threading.get_ident()
    assert len(traced["hysteresis_compare"]) > 1  # several chunks
    for name in ("lfilter", "hysteresis_compare", "sample", "read"):
        assert traced[name] and set(traced[name]) == {caller}, name
    assert len(traced["couple"]) == len(traced["hysteresis_compare"])
    assert caller not in traced["couple"]


class _Fault(RuntimeError):
    pass


def test_run_line_reraises_failures_and_joins_its_worker(baseline_cfg, monkeypatch):
    cfg = baseline_cfg
    bits = np.random.default_rng(4).integers(0, 2, 60).astype(np.uint8)  # four chunks
    before = threading.active_count()
    run_line(bits, cfg.link, cfg.tx, cfg.rx, 3)
    assert threading.active_count() == before

    couple, calls = _LineChain.couple, []

    def failing_couple(chain, on):
        calls.append(on.size)
        if len(calls) == 3:
            raise _Fault("third chunk")
        return couple(chain, on)

    monkeypatch.setattr(_LineChain, "couple", failing_couple)
    with pytest.raises(_Fault, match="third chunk"):
        run_line(bits, cfg.link, cfg.tx, cfg.rx, 3)
    assert len(calls) == 3  # nothing was drawn past the failed chunk
    assert threading.active_count() == before

    # A failure in the receive half waits for the chunk in flight, then raises.
    def failing_sample(rx, level):
        raise _Fault("receive half")

    monkeypatch.setattr(_LineChain, "couple", couple)
    monkeypatch.setattr(UsartRx, "sample", failing_sample)
    with pytest.raises(_Fault, match="receive half"):
        run_line(bits, cfg.link, cfg.tx, cfg.rx, 3, usart_rx=UsartRx(cfg.usart))
    assert threading.active_count() == before


@pytest.mark.parametrize("max_errors", [0, 4, 30])
def test_run_line_stops_after_the_chunk_that_exceeds_max_errors(baseline_cfg, monkeypatch,
                                                               max_errors):
    # At 0.15 m about a third of the decisions are wrong.  At 250 bit/s a
    # chunk is 16 bits, and the 16 framed bytes plus idle make 11 chunks.
    cfg = replace(baseline_cfg, link=replace(baseline_cfg.link, gap=0.15))
    bits = frame_line_bits(bytes(range(0, 256, 16)), cfg)
    chunk_bits = int(simulate._CHUNK_SAMPLES // (cfg.tx.sample_rate / cfg.tx.bit_rate))

    def run(limit):
        return run_line(bits, cfg.link, cfg.tx, cfg.rx, 13,
                        usart_rx=UsartRx(cfg.usart), max_errors=limit)

    full_mids, full_words = run(None)
    deciding = np.flatnonzero(full_mids != bits)[max_errors]
    stop = (deciding // chunk_bits + 1) * chunk_bits
    assert stop < bits.size

    couple, calls = _LineChain.couple, []

    def counting_couple(chain, on):
        calls.append(on.size)
        return couple(chain, on)

    monkeypatch.setattr(_LineChain, "couple", counting_couple)
    before = threading.active_count()
    mids, words = run(max_errors)
    assert threading.active_count() == before
    assert mids.size == stop
    assert mids.tobytes() == full_mids[:stop].tobytes()
    assert words == full_words[:len(words)]
    assert len(calls) == stop // chunk_bits + 1  # one chunk past the stop, no more

    def failing_couple(chain, on):
        if len(calls) == stop // chunk_bits:
            raise _Fault("chunk in flight at the stop")
        return counting_couple(chain, on)

    calls.clear()
    monkeypatch.setattr(_LineChain, "couple", failing_couple)
    with pytest.raises(_Fault, match="chunk in flight"):
        run(max_errors)
    assert threading.active_count() == before


def test_run_line_within_max_errors_returns_the_full_result(baseline_cfg):
    cfg = replace(baseline_cfg, link=replace(baseline_cfg.link, gap=0.15))
    bits = frame_line_bits(b"\x5a\xc3", cfg)

    def run(limit):
        return run_line(bits, cfg.link, cfg.tx, cfg.rx, 13,
                        usart_rx=UsartRx(cfg.usart), max_errors=limit)

    full_mids, full_words = run(None)
    errors = int(np.count_nonzero(full_mids != bits))
    assert errors > 0
    for limit in (errors, errors + 1, bits.size):
        mids, words = run(limit)
        assert mids.tobytes() == full_mids.tobytes()
        assert words == full_words


def test_run_line_output_independent_of_thread_scheduling(baseline_cfg):
    # Four concurrent callers (more than the cores) with a tiny switch
    # interval interleave every worker and receiver; each call must still
    # return what it returns alone.  At 0.15 m the decisions depend on the
    # noise, so a reordered draw would show.
    cfg = replace(baseline_cfg, link=replace(baseline_cfg.link, gap=0.15))
    bits = frame_line_bits(b"\x11\x22\x33", cfg)

    def run(seed):
        mids, words = run_line(bits, cfg.link, cfg.tx, cfg.rx, seed,
                               usart_rx=UsartRx(cfg.usart))
        return mids.tobytes(), words

    expected = {seed: run(seed) for seed in range(4)}
    got = {}
    threads = [threading.Thread(target=lambda s=seed: got.__setitem__(s, run(s)))
               for seed in expected]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_run_line_rejects_empty(baseline_cfg):
    cfg = baseline_cfg
    with pytest.raises(ValueError):
        run_line([], cfg.link, cfg.tx, cfg.rx, 0)


def test_derivation_rules():
    base = build_config().rx
    fast = build_config({"tx.carrier_freq": 20e3}).rx
    assert (base.hf_cutoff, fast.hf_cutoff) == (20e3, 40e3)
    assert base.envelope_tau == pytest.approx(4.0 / 10e3)
    assert fast.envelope_tau == pytest.approx(2.0 / 10e3)
    assert build_config({"rx.envelope_order": 2}).rx.envelope_tau < base.envelope_tau


def test_mark_envelope_closed_form(baseline_cfg):
    from iptsim.channel import voltage_gain
    cfg = baseline_cfg
    gain = voltage_gain(cfg.link, cfg.tx.carrier_freq)
    assert mark_envelope(cfg.link, cfg.tx) == pytest.approx(
        0.5 * cfg.tx.ic_on * cfg.tx.rc_load * gain)


def test_mark_envelope_matches_simulation(baseline_cfg):
    # The closed form should agree with an actual settled idle-carrier run.
    cfg = replace(baseline_cfg, link=replace(baseline_cfg.link, noise_rms=0.0))
    chain = _LineChain(cfg.link, cfg.tx, cfg.rx, noise_seed=0)
    on, _, _ = chain.drive(np.ones(10, dtype=np.uint8), 0)
    env = chain.envelope(chain.filter_hf(chain.couple(on)))
    settled = float(np.mean(env[len(env) // 2:]))
    assert settled == pytest.approx(mark_envelope(cfg.link, cfg.tx),
                                    rel=0.02)


def test_noise_rms_for_snr_definition(baseline_cfg):
    cfg = baseline_cfg
    sigma = noise_rms_for_snr(cfg.link, cfg.tx, 20.0)
    swing = cfg.tx.ic_on * cfg.tx.rc_load
    from iptsim.channel import voltage_gain
    mark_rms = swing * voltage_gain(cfg.link, cfg.tx.carrier_freq) / np.sqrt(2)
    assert 20 * np.log10(mark_rms / sigma) == pytest.approx(20.0, abs=1e-9)
