"""Command-line front end for the sweep engine.

Usage:
    mdiqkd-sweep --config cfg.yaml --sweep loss --eps 1e-6,1e-7 --out rates.csv

Each flag but --config and --sweep is generated from sweep.CONFIG_KEYS and
sets its dotted key, laid over the config file before any value is parsed
or checked. Exits 0 on success; a bad value ends the run with a one-line
JSON error on stderr and exit 1; argparse refuses an unknown flag (exit 2).
"""

import argparse
import os
import sys

from .sweep import CONFIG_KEYS, _float_list, frequency_table, load_config, loss_table

__all__ = ["main", "build_parser"]


def _split(text):
    """The comma-separated values of a list flag; empty ones are dropped."""
    return [tok for tok in text.split(",") if tok.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mdiqkd-sweep",
        description="Key-rate sweeps for MDI-QKD with imperfect sources.",
    )
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--sweep", choices=("loss", "frequency"), default="loss",
                        help="scan axis (default: loss)")
    for key, (_, _, parse, flag, _) in CONFIG_KEYS.items():
        if flag:
            many, name = parse is _float_list, key.rsplit(".", 1)[1].upper()
            parser.add_argument(flag, dest=key, type=_split if many else None,
                                metavar=name + ",..." if many else name, help=f"sets {key}")
    return parser


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    path, sweep = args.pop("config"), args.pop("sweep")
    try:
        # before any work, refuse a flag whose key the chosen axis does not read
        ignored = [flag for key, (*_, flag, axis) in CONFIG_KEYS.items()
                   if axis not in (None, sweep) and args.get(key) is not None]
        if ignored:
            raise ValueError(f"--sweep {sweep} does not take {', '.join(ignored)}")
        config = load_config(path, args)
        out_dir = os.path.dirname(config.out_path) or "."
        if not os.path.isdir(out_dir):
            raise FileNotFoundError(f"output directory {out_dir!r} does not exist")
        if os.path.isdir(config.out_path):
            raise IsADirectoryError(f"output path {config.out_path!r} is a directory")
        # the table stays columns from the estimate to the file; write
        # range-checks it before it prints a line
        table = (loss_table if sweep == "loss" else frequency_table)(config)
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
