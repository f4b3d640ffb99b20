"""Command-line front end for the sweep engine.

Usage:
    mdiqkd-sweep --config cfg.yaml --sweep loss --eps 1e-6,1e-7 --out rates.csv

Flags are laid over the config file before any value is checked. Exits 0
on success; on failure a one-line JSON error goes to stderr, exit nonzero.
"""

import argparse
import os
import sys

from .sweep import CONFIG_KEYS, frequency_table, load_config, loss_table

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # before any work, refuse a flag whose key the chosen axis does not read
        flags = {action.dest: action.option_strings[0] for action in parser._actions}
        ignored = [flags[name] for _, _, _, name, axis in CONFIG_KEYS.values()
                   if name and axis not in (None, args.sweep) and getattr(args, name) is not None]
        if ignored:
            raise ValueError(f"--sweep {args.sweep} does not take {', '.join(ignored)}")
        config = load_config(args.config, vars(args))
        out_dir = os.path.dirname(config.out_path) or "."
        if not os.path.isdir(out_dir):
            raise FileNotFoundError(f"output directory {out_dir!r} does not exist")
        if os.path.isdir(config.out_path):
            raise IsADirectoryError(f"output path {config.out_path!r} is a directory")
        # the table stays columns from the estimate to the file; write
        # range-checks it before it prints a line
        table = (loss_table if args.sweep == "loss" else frequency_table)(config)
        table.write(config.out_path, config.out_format, summary=table.summaries())
    except Exception as exc:  # noqa: BLE001 - single reporting funnel
        import json  # only a failed run needs it; kept off the start-up path

        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    errors = table.errors
    failed = len(errors) - errors.count(None)
    print(f"wrote {len(errors)} rows to {config.out_path}"
          + (f" ({failed} failed points)" if failed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
