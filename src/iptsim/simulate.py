"""The line chain: the one implementation of the link, streamed.

One call to run_line() pushes a sequence of NRZ bit-period levels through

    gated carrier -> switching transistor -> inductive link (+ noise)
    -> two-stage noise filter -> envelope detector -> level converter

and returns the logic level sampled at every bit midpoint.  Optionally the
logic waveform is decimated onto the USART's x16 grid (nearest sample) and
fed to a receiver instance whose delivered words are collected.  The
receiver settings it runs with are derived in iptsim.config.

The static collector rail carries no flux, so the link input is the switch
output minus vcc: zero during 0-bits, a unipolar square at the carrier rate
during 1-bits.  Processing is chunked by a fixed budget of samples
(whole bits, at least one per chunk) with filter/comparator/noise state
carried across chunks, so arbitrarily long streams run in constant memory
at any bit rate, and the output does not depend on where the chunk
boundaries fall.

Each chunk runs in two halves.  The transmit half (carrier, gating, link
gain and the noise draw) runs on one worker thread per call, one chunk
ahead of the receive half (filters, envelope, comparator, mid-bit
decisions and the USART feed) on the calling thread.  Only the worker draws
noise, chunk by chunk in stream order, so the output never depends on
thread scheduling; the overlap comes from numpy and scipy releasing the
GIL inside the large array operations.

The filters run the two compiled kernels behind scipy.signal.lfilter and
scipy.signal.sosfilt, loaded from their files, so scipy.signal itself (about
a second and 75 MiB to import) is never imported.

Each half keeps few chunk-sized arrays alive at once.  The transmit half
gates the carrier into a bool switch state and adds the link's one level
into the noise draw where it is on; the receive half runs both HF sections
in one sosfilt kernel call on the link output and rectifies, both in place.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from .channel import LinkParams, voltage_gain
from .modem import (HYSTERESIS_FRACTION, RxParams, TxParams, hysteresis_compare,
                    lowpass_coeffs, smoothing_coeffs)
from .usart import OVERSAMPLING, UsartRx

_CHUNK_SAMPLES = 1 << 16
# The computed zero crossings m * half_cycle and phases omega * n are off by
# about n * 1e-16 samples, so rounding can decide the carrier's sign only at a
# sample this close (in samples) to a nominal zero crossing.  Those samples
# take their sign from np.sin itself.
_ZERO_CROSSING_TOLERANCE = 1e-3


def _load_kernel(name: str):
    """Load scipy.signal's compiled module `name` without running scipy/signal/__init__.py."""
    folder = Path(scipy.__file__).parent / "signal"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"{name}{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(f"scipy.signal.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy {scipy.__version__} has no compiled filter kernel "
                      f"{name!r} in {folder}")


_linear_filter = _load_kernel("_sigtools")._linear_filter
_sosfilt = _load_kernel("_sosfilt")._sosfilt


def lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray, zi: np.ndarray):
    """scipy.signal.lfilter(b, a, x, zi=zi) along the last axis: (output, final state)."""
    return _linear_filter(b, a, x, -1, zi)


def as_bits(bits) -> np.ndarray:
    """Validate a 0/1 sequence and return it as a uint8 array."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bit stream must be one-dimensional")
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit stream elements must be exactly 0 or 1")
    return arr.astype(np.uint8)


class _LineChain:
    """Per-run filter, comparator and noise state, one method per stage."""

    def __init__(self, link: LinkParams, tx: TxParams, rx: RxParams, noise_seed: int):
        self.spb = tx.sample_rate / tx.bit_rate
        self.sub_stride = self.spb / OVERSAMPLING
        self.gain = voltage_gain(link, tx.carrier_freq)
        self.noise_rms = link.noise_rms
        self.on_level = -tx.swing  # drive minus the static rail
        self.omega = 2.0 * np.pi * tx.carrier_freq / tx.sample_rate
        self.half_cycle = tx.sample_rate / (2.0 * tx.carrier_freq)  # samples
        # Each HF section is a second-order row [b0, 0, 0, 1, a1, 0] of one sosfilt.
        b, a = lowpass_coeffs(rx.hf_cutoff, tx.sample_rate)
        self.hf_sos = np.tile(np.concatenate((b, [0.0, 0.0], a, [0.0])), (2, 1))
        self.env = smoothing_coeffs(rx.envelope_tau, tx.sample_rate)
        self.z_hf = np.zeros((2, 2))
        self.z_env = [np.zeros(1) for _ in range(rx.envelope_order)]
        self.cmp_state = False
        self.cmp_high = rx.threshold * (1.0 + HYSTERESIS_FRACTION)
        self.cmp_low = rx.threshold * (1.0 - HYSTERESIS_FRACTION)
        self.rng = np.random.default_rng(noise_seed)

    def drive(self, bits: np.ndarray, k0: int) -> tuple[np.ndarray, int]:
        """Switch state for bits [k0, k0+len), and its first sample.

        True where the transistor is on, its output on_level below the rail:
        while a 1-bit gates a positive carrier sin(omega * n), whose phase
        runs on across bits and chunks.  The sign is expanded from half-cycle
        runs, as the bits are: half-cycle m starts at m * half_cycle and is
        positive for even m.
        """
        edges = np.rint((np.arange(bits.size + 1) + k0) * self.spb).astype(np.int64)
        n0, n1 = int(edges[0]), int(edges[-1])
        on = np.repeat(bits.astype(bool), np.diff(edges))
        m = np.arange(int(n0 // self.half_cycle), int(-(-n1 // self.half_cycle)) + 1)
        zeros = m * self.half_cycle
        starts = np.clip(np.ceil(zeros), n0, n1).astype(np.int64)
        positive = np.repeat(m[:-1] % 2 == 0, np.diff(starts))
        near = np.rint(zeros)
        near = near[(np.abs(near - zeros) < _ZERO_CROSSING_TOLERANCE)
                    & (near >= n0) & (near < n1)].astype(np.int64)
        positive[near - n0] = np.sin(self.omega * near) > 0.0
        positive &= on
        return positive, n0

    def couple(self, on: np.ndarray) -> np.ndarray:
        """Inductive link: scalar gain at the carrier plus Gaussian noise.

        Returns a new array: the noise draw plus gain * on_level where the
        switch state is on, which is gain * drive + noise value for value,
        since the draw is never -0.
        """
        y = self.rng.normal(0.0, self.noise_rms, on.size)
        np.add(y, self.gain * self.on_level, out=y, where=on)
        return y

    def filter_hf(self, y: np.ndarray) -> np.ndarray:
        """Two cascaded RC low-pass sections that strip noise above the carrier.

        Filters y in place and returns it; y must be a C-contiguous float64
        array, as couple()'s output is.  One sosfilt kernel call runs both
        sections and updates z_hf through a view.  Its values equal two
        chained lfilter sections, except that an exact zero may carry the
        other sign, which the rectifier cannot see.
        """
        _sosfilt(self.hf_sos, y[np.newaxis], self.z_hf[np.newaxis])
        return y

    def envelope(self, y: np.ndarray) -> np.ndarray:
        """Full-wave rectifier, in place on y, followed by the RC smoothing cascade."""
        y = np.abs(y, out=y)
        for i in range(len(self.z_env)):
            y, self.z_env[i] = lfilter(*self.env, y, zi=self.z_env[i])
        return y

    def compare(self, env: np.ndarray) -> np.ndarray:
        """Hysteresis level converter: logic high above the upper switching point."""
        logic, self.cmp_state = hysteresis_compare(
            env, self.cmp_high, self.cmp_low, self.cmp_state)
        return logic

    def transmit(self, bits: np.ndarray, k0: int) -> tuple[np.ndarray, int]:
        """Link output for bits [k0, k0+len), and its first sample: the worker's half."""
        on, n0 = self.drive(bits, k0)
        return self.couple(on), n0

    def receive(self, y: np.ndarray) -> np.ndarray:
        """Logic levels recovered from a chunk of link output: the caller's half."""
        return self.compare(self.envelope(self.filter_hf(y)))


def run_line(line_bits, link: LinkParams, tx: TxParams, rx: RxParams, noise_seed: int,
             usart_rx: UsartRx | None = None,
             max_errors: int | None = None) -> tuple[np.ndarray, list[tuple[int, bool]]]:
    """Transmit bit-period levels across the link and recover them.

    Returns the logic level at each bit midpoint (uint8 array, one entry
    per input bit) and the words delivered by the optional USART receiver,
    which is driven from the x16 decimation of the logic waveform and
    drained after every sub-sample.

    With max_errors set, the decisions that differ from line_bits are
    counted after each chunk, and the call stops at the end of the chunk
    that takes the count past max_errors.  It then returns the decisions
    made so far, a prefix of what the unlimited call returns, and the
    words delivered so far.

    A worker thread, started and joined within the call, runs the transmit
    half of the next chunk while this thread runs the receive half of the
    current one, so at most one chunk is in flight.  A failure on the
    worker is re-raised here.
    """
    bits = as_bits(line_bits)
    if bits.size == 0:
        raise ValueError("run_line requires a non-empty bit stream")
    chain = _LineChain(link, tx, rx, noise_seed)
    chunk_bits = max(1, int(_CHUNK_SAMPLES // chain.spb))
    mids = np.empty(bits.size, dtype=np.uint8)
    received: list[tuple[int, bool]] = []
    errors = 0
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="run_line") as worker:
        ahead = worker.submit(chain.transmit, bits[:chunk_bits], 0)
        for k0 in range(0, bits.size, chunk_bits):
            y, n0 = ahead.result()
            k1 = min(k0 + chunk_bits, bits.size)
            if k1 < bits.size:
                ahead = worker.submit(chain.transmit, bits[k1:k1 + chunk_bits], k1)
            logic = chain.receive(y)
            mid_idx = np.rint((np.arange(k0, k1) + 0.5) * chain.spb).astype(np.int64)
            mids[k0:k1] = logic[mid_idx - n0]
            if usart_rx is not None:
                # Bits [k0, k1) span exactly grid points OVERSAMPLING*k0 .. OVERSAMPLING*k1-1.
                grid = np.arange(OVERSAMPLING * k0, OVERSAMPLING * k1)
                sub_idx = np.rint(grid * chain.sub_stride).astype(np.int64)
                for level in logic[sub_idx - n0].tolist():
                    usart_rx.sample(level)
                    if usart_rx.rcif:
                        received.append(usart_rx.read())
            if max_errors is not None:
                errors += int(np.count_nonzero(mids[k0:k1] != bits[k0:k1]))
                if errors > max_errors:
                    ahead.result()  # the chunk in flight: wait for it and raise its failure
                    break
    return mids[:k1], received
