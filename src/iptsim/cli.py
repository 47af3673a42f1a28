"""Command-line front end.

Subcommands:
  run <config>        scenario -> report on stdout, trace CSV to a file
  sweep <config>      BER sweep over a link, tx, rx or usart setting -> CSV table
  maxrate <config>    binary search for the highest usable bit rate
  brg                 baud-rate divisor calculator

Exit codes: 0 success, 1 configuration error, 2 no feasible rate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .harness import (NoFeasibleRateError, ber_sweep, emit_csv, max_data_rate,
                      run_scenario)
from .usart import brg_divisor


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    report, traces = run_scenario(cfg)
    trace_path = args.trace or f"{Path(args.config).stem}_trace.csv"
    _write_text(trace_path, emit_csv(traces))
    delivered_pct = (100.0 * report.frames_delivered / report.frames_sent
                     if report.frames_sent else 0.0)
    print(f"scenario: {args.config}")
    print(f"sessions: {report.sessions}  frames sent: {report.frames_sent}  "
          f"delivered: {report.frames_delivered} ({delivered_pct:.1f}%)")
    print(f"line bits: {report.bits_sent}  bit errors: {report.bit_errors}  "
          f"ber: {report.ber:.3g}")
    print(f"usart: spbrg={report.spbrg}  actual={report.actual_baud:.3f} baud  "
          f"error={report.baud_error_pct:+.3f}%")
    if report.fault_events:
        events = ", ".join(f"t={t:g}s mask=0x{m:02X}" for t, m in report.fault_events)
        print(f"fault events: {events}")
    else:
        print("fault events: none")
    print(f"display: |{report.display_line1}|")
    print(f"         |{report.display_line2}|")
    print(f"trace written: {trace_path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = [v for v in args.values.split(",") if v.strip()]
    results = ber_sweep(cfg, args.var, values, bits_per_point=args.bits)
    text = emit_csv(results)
    if args.out:
        _write_text(args.out, text)
        print(f"sweep written: {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_maxrate(args) -> int:
    cfg = load_config(args.config)
    result = max_data_rate(cfg, args.ber, bits_per_probe=args.bits_per_probe)
    bound = (f"search resolution {result.resolution_bps} bit/s" if result.resolution_bps
             else "capped at the carrier limit carrier/10, not a measured limit")
    print(f"max data rate: {result.rate_bps} bit/s ({bound}, BER ceiling {args.ber:g})")
    return 0


def _cmd_brg(args) -> int:
    result = brg_divisor(args.fosc, args.baud, sync=args.sync, brgh=args.brgh)
    print(f"X={result.spbrg}  actual={result.actual:.6g} baud  "
          f"error={result.error_pct:+.3f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iptsim",
        description="Contactless motor-monitoring link simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario; report plus trace CSV")
    p.add_argument("config")
    p.add_argument("--trace", help="trace CSV path (default: <config>_trace.csv)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="BER sweep over one setting")
    p.add_argument("config")
    p.add_argument("--var", required=True,
                   help="link/tx/rx/usart key, such as link.gap, or its name after the dot")
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values, read by the key's type")
    p.add_argument("--bits", type=int, default=10_000,
                   help="bits per sweep point (default 10000)")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("maxrate", help="highest bit rate under a BER ceiling")
    p.add_argument("config")
    p.add_argument("--ber", type=float, default=1e-3,
                   help="BER ceiling (default 1e-3)")
    p.add_argument("--bits-per-probe", type=int, default=2000)
    p.set_defaults(func=_cmd_maxrate)

    p = sub.add_parser("brg", help="baud-rate divisor calculator")
    p.add_argument("--fosc", type=float, required=True, help="oscillator Hz")
    p.add_argument("--baud", type=float, required=True, help="target baud")
    p.add_argument("--brgh", action="store_true", help="high-speed mode")
    p.add_argument("--sync", action="store_true", help="synchronous mode")
    p.set_defaults(func=_cmd_brg)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NoFeasibleRateError as exc:
        print(f"no feasible rate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
