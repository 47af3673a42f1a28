#!/usr/bin/env python3
"""Data-rate limits vs. smoothing-filter order and carrier frequency.

Reproduces the two headline comparisons: adding a second (or third) RC
section to the envelope smoother raises the maximum data rate, and so does
moving the carrier up (more carrier cycles per bit for the filter to chew on).
"""

import sys
from pathlib import Path

from iptsim.config import load_config, with_settings
from iptsim.harness import max_data_rate

ROOT = Path(__file__).resolve().parent.parent
BER_CEILING = 1e-3


def main() -> int:
    base = load_config(str(ROOT / "configs" / "baseline.cfg"))
    rows = []
    for order in (1, 2, 3):
        cfg = with_settings(base, {"rx.envelope_order": order})
        res = max_data_rate(cfg, BER_CEILING)
        rows.append((f"10 kHz carrier, order {order}", res))
    for carrier in (20e3, 40e3):
        cfg = with_settings(base, {"tx.carrier_freq": carrier})
        res = max_data_rate(cfg, BER_CEILING)
        rows.append((f"{carrier/1e3:.0f} kHz carrier, order 1", res))

    out_dir = ROOT / "results"
    out_dir.mkdir(exist_ok=True)
    csv_path = out_dir / "rate_study.csv"
    lines = ["setup,max_rate_bps,resolution_bps"]
    print(f"{'setup':<28}  {'max rate':>10}  {'resolution':>10}")
    for label, res in rows:
        print(f"{label:<28}  {res.rate_bps:7d} bps  {res.resolution_bps:6d} bps")
        lines.append(f"{label},{res.rate_bps},{res.resolution_bps}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print(f"\nwritten: {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
