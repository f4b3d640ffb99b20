"""Command-line front end for the sweep engine.

Usage:
    mdiqkd-sweep --config cfg.yaml --sweep loss --eps 1e-6,1e-7 --out rates.csv

Flag values override the config file. Exits 0 on success; on failure a
one-line JSON error summary goes to stderr and the exit code is nonzero.
"""

import argparse
import json
import sys

from .sweep import curve_summaries, emit_table, load_config, run_frequency_sweep, run_loss_sweep

__all__ = ["main", "build_parser"]


def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {exc}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mdiqkd-sweep",
        description="Key-rate sweeps for MDI-QKD with imperfect sources.",
    )
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--sweep", choices=("loss", "frequency"), default="loss",
                        help="scan axis (default: loss)")
    parser.add_argument("--eps", type=_float_list, metavar="E1,E2,...",
                        help="uniform side-channel weights, one curve each")
    parser.add_argument("--delta", type=_float_list, metavar="D1,D2,...",
                        help="uniform modulation errors in radians, one curve each")
    parser.add_argument("--loss-start", type=float, dest="start", metavar="DB")
    parser.add_argument("--loss-stop", type=float, dest="stop", metavar="DB")
    parser.add_argument("--loss-step", type=float, dest="step", metavar="DB")
    parser.add_argument("--out", help="output path (default from config)")
    parser.add_argument("--format", choices=("csv", "json-lines"),
                        help="output format (default from config)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, vars(args))
        run = run_loss_sweep if args.sweep == "loss" else run_frequency_sweep
        points = run(config)
        emit_table(points, config.out_path, config.out_format,
                   summary=curve_summaries(points))
    except Exception as exc:  # noqa: BLE001 - single reporting funnel
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    failed = sum(1 for p in points if p.error is not None)
    print(f"wrote {len(points)} rows to {config.out_path}"
          + (f" ({failed} failed points)" if failed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
