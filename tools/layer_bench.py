"""Time each stage of a sweep table, first call and warm, on the benchmark's workloads.

Usage:
    python3 tools/layer_bench.py --label NAME [--src DIR] [--base LABEL DIR]
                                 [--out DIR] [--workloads W,...]
                                 [--processes P] [--repeats R]

For each workload of perfbench/workloads.py, drawn at its default seed,
the script starts --processes fresh interpreters that each run cli.main
once with the stage functions wrapped, timing each stage's first call
there, then its median over --repeats warm calls with the arguments of
that first call: load_config, reference_amplitudes,
transmission_rates_grid, build_estimation_stack, reference_yields, the
first _estimate_core batch of the table, SweepTable.summaries,
SweepTable.check and _g12.print_rows. As many fresh interpreters time
the start-up (start_up: import mdiqkd.cli and the first load_config, as
perfbench's setup_s does; first_us only) and then the whole cli.main,
unwrapped, as perfbench's table_s does. Each figure is the median over
the processes, in microseconds per call.

The package is imported from --src (default: this checkout's src).
--base times a second tree too, such as a parent commit's checkout,
its processes interleaved with the first tree's in alternating order:
wall time on a shared machine drifts by more than a change's gain
within minutes, so two trees timed one after the other do not compare.

Writes BENCH_<label>.json per tree to --out (default: the repository
root), with the Python, numpy and CPU that measured it.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _timed(fn, repeats):
    """(first call in us, median of repeats warm calls in us)."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    warm = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        warm.append(time.perf_counter() - start)
    return first * 1e6, statistics.median(warm) * 1e6


def _stages(argv, repeats):
    """{stage: (first us, warm us)} of the stages one cli.main table build calls.

    Each stage function is wrapped where its caller looks it up, and
    cli.main runs once: a stage's first call is timed there, in pipeline
    order, and its arguments kept; the stage is then called again with
    them for the warm median. print_rows yields its text lazily, so its
    calls are timed drawing every chunk.
    """
    import mdiqkd.cli
    from mdiqkd import _g12, sweep

    traced = [(mdiqkd.cli, "load_config", "load_config"),
              (sweep, "reference_amplitudes", "reference_amplitudes"),
              (sweep, "transmission_rates_grid", "transmission_rates_grid"),
              (sweep, "build_estimation_stack", "build_estimation_stack"),
              (sweep, "reference_yields", "reference_yields"),
              (sweep, "_estimate_core", "_estimate_core"),
              (sweep.SweepTable, "summaries", "SweepTable.summaries"),
              (sweep.SweepTable, "check", "SweepTable.check"),
              (_g12, "print_rows", "_g12.print_rows")]
    first, calls = {}, {}

    def wrap(name, fn):
        lazy = name == "_g12.print_rows"

        def call(*args):
            return list(fn(*args)) if lazy else fn(*args)

        def stage(*args):
            if name in calls:
                result = call(*args)
            else:
                start = time.perf_counter()
                result = call(*args)
                first[name] = (time.perf_counter() - start) * 1e6
                calls[name] = (call, args)
            return iter(result) if lazy else result
        return stage

    for owner, attribute, name in traced:
        setattr(owner, attribute, wrap(name, getattr(owner, attribute)))
    with contextlib.redirect_stdout(io.StringIO()):
        if mdiqkd.cli.main(argv) != 0:
            raise RuntimeError("cli.main failed")
    times = {}
    for _, _, name in traced:
        call, args = calls[name]
        times[name] = (first[name], _timed(lambda: call(*args), repeats)[1])
    return times


def _worker(kind, config_path, sweep, out_path, repeats):
    """Time the stages (kind "stages") or start-up and cli.main (kind "cli") in this process."""
    start = time.perf_counter()
    import mdiqkd.cli

    argv = ["--config", config_path, "--sweep", sweep, "--out", out_path]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a clamp or revival warning is not timed here
        if kind == "stages":
            result = _stages(argv, repeats)
        else:
            # as perfbench's setup_s and table_s: the import and a first
            # load_config, then cli.main on its own
            mdiqkd.sweep.load_config(config_path)
            start_up = (time.perf_counter() - start) * 1e6

            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    if mdiqkd.cli.main(argv) != 0:
                        raise RuntimeError("cli.main failed")

            result = {"start_up": (start_up,), "cli.main": _timed(run, repeats)}
    print(json.dumps(result))


def _provenance():
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # noqa: BLE001 - older numpy has no dict form
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpu": cpu, "cpus": os.cpu_count(), "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--base", nargs=2, metavar=("LABEL", "SRC"),
                        help="a second tree, timed interleaved with the first")
    parser.add_argument("--out", default=str(ROOT))
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--processes", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=25)
    parser.add_argument("--worker", nargs=4, metavar=("KIND", "CONFIG", "SWEEP", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.path.insert(0, str(Path(args.src).resolve()))
        _worker(*args.worker, repeats=args.repeats)
        return 0

    import yaml

    sys.path.insert(0, str(PERFBENCH))
    import workloads

    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    trees = [(args.label, args.src)] + ([tuple(args.base)] if args.base else [])
    reports = {label: {"label": label, "seed": workloads.DEFAULT_SEED, "processes": args.processes,
                       "repeats": args.repeats, "unit": "us per call",
                       "provenance": _provenance(), "workloads": {}} for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workload = workloads.make(name, workloads.DEFAULT_SEED)
            config_path = Path(tmp) / f"{name}.yaml"
            config_path.write_text(yaml.safe_dump(workload.config(), sort_keys=True))
            samples = {label: {} for label, _ in trees}
            for i in range(args.processes):
                for label, src in trees[::-1] if i % 2 else trees:
                    for kind in ("stages", "cli"):
                        cmd = [sys.executable, __file__, "--label", label, "--src", src,
                               "--repeats", str(args.repeats), "--worker", kind,
                               str(config_path), workload.sweep, str(Path(tmp) / "table")]
                        line = subprocess.run(cmd, capture_output=True, text=True,
                                              check=True).stdout.splitlines()[-1]
                        for stage, times in json.loads(line).items():
                            samples[label].setdefault(stage, []).append(times)
            for label, _ in trees:
                reports[label]["workloads"][name] = {
                    "rows": workload.grid_sizes()["rows"],
                    # start_up has a first call only, so zip stops at first_us
                    "stages": {stage: {key: round(statistics.median(values), 1)
                                       for key, values in zip(("first_us", "warm_us"), zip(*ts))}
                               for stage, ts in samples[label].items()},
                }
    for label, report in reports.items():
        path = Path(args.out) / f"BENCH_{label}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
