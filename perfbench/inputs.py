"""Seeded inputs of the iptsim benchmark: workload sizes and config files.

This module does not import iptsim, so configs can be written before the
set-up probes time a fresh import.  Every input is a pure function of the
workload name, the size and the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("gap_sweep", "rate_search", "scenario")

# Config text parses integers through float, so larger seeds would be rounded.
SEED_MODULUS = 2 ** 53
# The master seed of configs/baseline.cfg, at which results/rate_study.csv was made.
REFERENCE_SEED = 1234567

# Per workload, the "full" size is what the benchmark times; "tiny" exists for
# the self-test.
SIZES = {
    "gap_sweep": {
        # 0.00-0.10 m must be error-free; 0.15 m is past the 0.14 -> 0.15 m
        # cliff, where frames are lost.
        "full": {"gaps": (0.0, 0.05, 0.10, 0.15), "bits_per_point": 2000},
        "tiny": {"gaps": (0.05, 0.15), "bits_per_point": 1000},
    },
    "rate_search": {
        # bits_per_probe and min_rate are the defaults of max_data_rate, the
        # settings of results/rate_study.csv.  The filter-order and carrier
        # variants of scripts/rate_study.py each add a 40 M-sample probe at
        # 50 bit/s, which does not fit the run length, so only the baseline runs.
        "full": {"ber_ceiling": 1e-3, "bits_per_probe": 2000, "min_rate": 50},
        "tiny": {"ber_ceiling": 1e-3, "bits_per_probe": 1000, "min_rate": 250},
    },
    "scenario": {
        "full": {"duration_s": 20.0, "step_s": 2.0},
        "tiny": {"duration_s": 4.0, "step_s": 2.0},
    },
}

# Baseline config row that the rate_search workload runs, named as in
# results/rate_study.csv.
BASELINE_LABEL = "10 kHz carrier, order 1"

# Readings inside every limit of configs/baseline.cfg, with room for the
# clearing hysteresis, and readings past exactly one limit.
_NORMAL = {"temp": (20.0, 70.0), "speed": (1000, 2500),
           "volt": (200.0, 240.0), "curr": (0.5, 5.0)}
_FAULTS = (("temp", 85.0, 120.0), ("speed", 3100, 4500), ("speed", 50, 150),
           ("volt", 265.0, 280.0), ("volt", 150.0, 175.0), ("curr", 6.5, 9.0))


def master_seed(seed: int) -> int:
    """sim.master_seed used for a benchmark seed."""
    return seed % SEED_MODULUS


def _draw(rng: random.Random, lo, hi):
    if isinstance(lo, int):
        return rng.randint(lo, hi)
    return round(rng.uniform(lo, hi), 2)


def script_lines(seed: int, duration_s: float, step_s: float) -> list[str]:
    """Motor readings every step_s seconds, alternating in-limit and faulty.

    Each faulty step follows an in-limit one, so its fault bits are new and
    the session answers with a fault alarm; the session after it, with the
    same readings, answers with a plain reading.
    """
    rng = random.Random(seed)
    lines = []
    n_steps = int(duration_s // step_s)
    for i in range(n_steps):
        reading = {key: _draw(rng, lo, hi) for key, (lo, hi) in _NORMAL.items()}
        if i % 2:
            key, lo, hi = _FAULTS[rng.randrange(len(_FAULTS))]
            reading[key] = _draw(rng, lo, hi)
        lines.append(f"script.{i} = {i * step_s:g} {reading['temp']:g} {reading['speed']:g} "
                     f"{reading['volt']:g} {reading['curr']:g}")
    return lines


def config_text(base_text: str, workload: str, size: str, seed: int) -> str:
    """configs/baseline.cfg with the seed replaced, and for the scenario its
    duration and motor-reading script too (the sweeps use neither)."""
    params = SIZES[workload][size]
    replaced = ("sim.master_seed",)
    overrides = [f"sim.master_seed = {master_seed(seed)}"]
    if "duration_s" in params:
        replaced += ("sim.duration_s", "script.")
        overrides.append(f"sim.duration_s = {params['duration_s']:g}")
        overrides += script_lines(seed, params["duration_s"], params["step_s"])
    kept = [line for line in base_text.splitlines()
            if not line.split("#", 1)[0].strip().startswith(replaced)]
    return "\n".join(kept + ["", "# generated by perfbench"] + overrides) + "\n"
