"""Sampled-signal container for the sensor models, and bit-stream validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Waveform:
    """Uniformly sampled real-valued signal (volts)."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be a one-dimensional sequence")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite (no NaN or infinity)")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Signal length in seconds."""
        return self.samples.size / self.sample_rate


def as_bits(bits) -> np.ndarray:
    """Validate a 0/1 sequence and return it as a uint8 array."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bit stream must be one-dimensional")
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit stream elements must be exactly 0 or 1")
    return arr.astype(np.uint8)
