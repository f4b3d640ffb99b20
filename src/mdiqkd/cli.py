"""Command-line front end for the sweep engine.

Usage:
    mdiqkd-sweep --config cfg.yaml --sweep loss --eps 1e-6,1e-7 --out rates.csv

Each flag but --config and --sweep is generated from sweep.CONFIG_KEYS and
sets its dotted key, laid over the config file before any value is parsed
or checked. A flag takes its value as --name value or --name=value; a
repeated flag keeps its last value. -h or --help where a flag is expected,
not as a flag's value, prints the usage and exits 0. Exits 0 on success; a
bad value, and a command line that cannot be read (an unknown or
abbreviated flag, a flag without its value, a stray argument, an axis
other than loss and frequency), end the run with a one-line JSON error on
stderr and exit 1.
"""

import os
import sys

from .sweep import CONFIG_KEYS, _float_list, frequency_table, load_config, loss_table

__all__ = ["main", "build_parser"]


def _split(text):
    """The comma-separated values of a list flag; empty ones are dropped."""
    return [tok for tok in text.split(",") if tok.strip()]


def build_parser():
    """The flag table: each flag's key, whether it takes a list, its metavar and its help.

    --config and --sweep come first; every other flag is generated from
    sweep.CONFIG_KEYS and sets its dotted key.
    """
    flags = {"--config": ("config", False, "PATH", "YAML config file"),
             "--sweep": ("sweep", False, "{loss,frequency}", "scan axis (default: loss)")}
    for key, (_, _, parse, flag, _) in CONFIG_KEYS.items():
        if flag:
            many, name = parse is _float_list, key.rsplit(".", 1)[1].upper()
            flags[flag] = (key, many, name + ",..." if many else name, f"sets {key}")
    return flags


def _usage(flags):
    """The usage line, then one line per flag, as --help prints them."""
    options = {f"{flag} {metavar}": text for flag, (_, _, metavar, text) in flags.items()}
    return ("usage: mdiqkd-sweep [-h] " + " ".join(f"[{option}]" for option in options)
            + "\n\nKey-rate sweeps for MDI-QKD with imperfect sources.\n\n"
            + "  -h, --help  show this help and exit\n"
            + "".join(f"  {option}  {text}\n" for option, text in options.items()))


def _read(argv, flags):
    """{key: text} of the flags in argv, a list flag's text split; None if help is asked.

    A flag is spelt in full, as --name value or --name=value, and takes
    the next token as its value unless that starts with --; a repeated
    flag keeps its last value. -h or --help where a flag is expected asks
    for help, so --delta -h does not. Otherwise the first malformed token
    raises ValueError.
    """
    args, error, i = {}, None, 0
    while i < len(argv):
        token, i = argv[i], i + 1
        if token in ("-h", "--help"):
            return None
        flag, given, text = token.partition("=")
        if flag in flags and not given:
            text = argv[i] if i < len(argv) and not argv[i].startswith("--") else None
            i += text is not None
        if flag not in flags:
            problem = (f"unknown flag {flag!r}" if token.startswith("-")
                       else f"unexpected argument {token!r}")
        elif text is None:
            problem = f"{flag} needs a value"
        else:
            key, many, _, _ = flags[flag]
            args[key] = _split(text) if many else text
            continue
        error = error or ValueError(problem)
    if error:
        raise error
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    flags = build_parser()
    try:
        args = _read(argv, flags)
        if args is None:
            print(_usage(flags), end="")
            return 0
        path, sweep = args.pop("config", None), args.pop("sweep", "loss")
        if sweep not in ("loss", "frequency"):
            raise ValueError(f"--sweep must be loss or frequency, got {sweep!r}")
        # before any work, refuse a flag whose key the chosen axis does not read
        ignored = [flag for key, (*_, flag, axis) in CONFIG_KEYS.items()
                   if axis not in (None, sweep) and key in args]
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
        table.write(config.out_path, config.out_format, summary=True)
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
