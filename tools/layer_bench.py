"""Time each stage of a sweep table, first call and warm, on the benchmark's workloads.

Usage:
    python3 tools/layer_bench.py --label NAME [--src DIR] [--base LABEL DIR]
                                 [--out DIR] [--workloads W,...]
                                 [--processes P] [--repeats R]

For each workload of perfbench/workloads.py, drawn at its default seed,
the script starts --processes fresh interpreters that each run cli.main
once with the stage functions wrapped, timing each stage's first call
there and the growth of the process's peak resident memory (VmHWM)
across it, then its median over --repeats warm calls with the arguments
of that first call: load_config, reference_amplitudes,
transmission_rates_grid, build_estimation_stack, reference_yields, the
first call of each stage of the chain (_point_terms and _row_columns,
each called once per table), the whole table build
(loss_table/frequency_table: the stages before it and the glue between
them), SweepTable._curves, SweepTable.check and _g12.print_rows. A
stage that a tree does not define, or never calls, is reported as null,
so that trees of different stages compare. As
many fresh interpreters run what a perfbench worker runs: the start-up
(start_up: import mdiqkd.cli and the first load_config, as perfbench's
setup_s), perfbench's calibration kernel (perfbench/worker.py, imported
as it is), the whole cli.main, unwrapped, as perfbench's table_s, and
the kernel again; then they read VmHWM, what perfbench's peak_rss_mb reads, and time warm
cli.main calls. Each figure is the median over the processes: times in
microseconds per call, raw (first_us, warm_us) and, for start_up and
cli.main, scaled by the kernel as perfbench scales them (first_cal_us);
the table rows per second of the scaled cli.main, as perfbench's
rows_per_s (rows_per_s); memory in kB (hwm_growth_kb) and MB
(peak_rss_mb).

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
import resource
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


def _vm_hwm_kb():
    """This process's peak resident memory in kB, as perfbench's worker reads it."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _stages(argv, repeats):
    """{stage: {first_us, warm_us, hwm_growth_kb}} of the stages one cli.main table build calls.

    Each stage function is wrapped where its caller looks it up, and
    cli.main runs once: a stage's first call is timed there, in pipeline
    order, with the growth of VmHWM across it, and its arguments kept;
    the stage is then called again with them for the warm median. A
    stage's first call leaves out the time the probes of the stages it
    calls take. print_rows yields its text lazily, so its calls are
    timed drawing every chunk.
    """
    import mdiqkd.cli
    from mdiqkd import _g12, sweep

    traced = [(mdiqkd.cli, "load_config", "load_config"),
              (sweep, "reference_amplitudes", "reference_amplitudes"),
              (sweep, "transmission_rates_grid", "transmission_rates_grid"),
              (sweep, "build_estimation_stack", "build_estimation_stack"),
              (sweep, "reference_yields", "reference_yields"),
              (sweep, "_point_terms", "_point_terms"),
              (sweep, "_row_columns", "_row_columns"),
              (mdiqkd.cli, "loss_table", "loss_table/frequency_table"),
              (mdiqkd.cli, "frequency_table", "loss_table/frequency_table"),
              (sweep.SweepTable, "_curves", "SweepTable._curves"),
              (sweep.SweepTable, "check", "SweepTable.check"),
              (_g12, "print_rows", "_g12.print_rows")]
    first, growth, calls = {}, {}, {}
    probes = [0.0]  # seconds the first calls' probes took, outside their stages

    def wrap(name, fn):
        lazy = name == "_g12.print_rows"

        def call(*args):
            return list(fn(*args)) if lazy else fn(*args)

        def stage(*args):
            if name in calls:
                result = call(*args)
            else:
                enter = time.perf_counter()
                hwm, inner = _vm_hwm_kb(), probes[0]
                start = time.perf_counter()
                result = call(*args)
                end = time.perf_counter()
                first[name] = (end - start - (probes[0] - inner)) * 1e6
                growth[name] = _vm_hwm_kb() - hwm
                calls[name] = (call, args)
                probes[0] += start - enter + time.perf_counter() - end
            return iter(result) if lazy else result
        return stage

    for owner, attribute, name in traced:
        if hasattr(owner, attribute):  # a tree need not define every stage
            setattr(owner, attribute, wrap(name, getattr(owner, attribute)))
    with contextlib.redirect_stdout(io.StringIO()):
        if mdiqkd.cli.main(argv) != 0:
            raise RuntimeError("cli.main failed")
    times = {}
    for name in dict.fromkeys(name for _, _, name in traced):
        if name not in calls:  # a stage this tree never calls
            times[name] = None
            continue
        call, args = calls[name]
        times[name] = {"first_us": first[name], "warm_us": _timed(lambda: call(*args), repeats)[1],
                       "hwm_growth_kb": growth[name]}
    return times


def _worker(kind, config_path, sweep, out_path, repeats):
    """Time the stages (kind "stages") or start-up and cli.main (kind "cli") in this process.

    The cli kind runs perfbench's worker sequence and reports each
    calibration-scaled time's kernel time, cal_us, beside it.
    """
    start = time.perf_counter()
    import mdiqkd.cli

    argv = ["--config", config_path, "--sweep", sweep, "--out", out_path]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a clamp or revival warning is not timed here
        if kind == "stages":
            result = _stages(argv, repeats)
        else:
            # as perfbench's setup_s and table_s: the import and a first
            # load_config, then cli.main on its own between two kernel runs
            mdiqkd.sweep.load_config(config_path)
            start_up = (time.perf_counter() - start) * 1e6
            sys.path.insert(0, str(PERFBENCH))
            import worker

            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    if mdiqkd.cli.main(argv) != 0:
                        raise RuntimeError("cli.main failed")

            cal = worker.calibrate()
            start = time.perf_counter()
            run()
            first = (time.perf_counter() - start) * 1e6
            cal_us = (cal + worker.calibrate()) / 2 * 1e6
            peak_rss_mb = _vm_hwm_kb() / 1024.0
            result = {"start_up": {"first_us": start_up, "cal_us": cal_us},
                      "cli.main": {"first_us": first, "warm_us": _timed(run, repeats)[1],
                                   "cal_us": cal_us, "peak_rss_mb": peak_rss_mb}}
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
    from run import CAL_REFERENCE_S

    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    trees = [(args.label, args.src)] + ([tuple(args.base)] if args.base else [])
    reports = {label: {"label": label, "seed": workloads.DEFAULT_SEED, "processes": args.processes,
                       "repeats": args.repeats,
                       "unit": "us per call; hwm_growth_kb in kB, peak_rss_mb in MB",
                       "provenance": _provenance(), "workloads": {}} for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workload = workloads.make(name, workloads.DEFAULT_SEED)
            config_path = Path(tmp) / f"{name}.yaml"
            config_path.write_text(yaml.safe_dump(workload.config(), sort_keys=True))
            rows = workload.grid_sizes()["rows"]
            samples = {label: {} for label, _ in trees}
            for i in range(args.processes):
                for label, src in trees[::-1] if i % 2 else trees:
                    for kind in ("stages", "cli"):
                        cmd = [sys.executable, __file__, "--label", label, "--src", src,
                               "--repeats", str(args.repeats), "--worker", kind,
                               str(config_path), workload.sweep, str(Path(tmp) / "table")]
                        line = subprocess.run(cmd, capture_output=True, text=True,
                                              check=True).stdout.splitlines()[-1]
                        for stage, figures in json.loads(line).items():
                            if figures is None:
                                samples[label].setdefault(stage, None)
                                continue
                            # perfbench's scaling: the time on a CPU whose kernel takes
                            # CAL_REFERENCE_S
                            cal_us = figures.pop("cal_us", None)
                            if cal_us:
                                figures["first_cal_us"] = (figures["first_us"]
                                                           * CAL_REFERENCE_S * 1e6 / cal_us)
                            if stage == "cli.main":
                                figures["rows_per_s"] = rows * 1e6 / figures["first_cal_us"]
                            for key, value in figures.items():
                                samples[label].setdefault(stage, {}).setdefault(key, []).append(
                                    value)
            for label, _ in trees:
                reports[label]["workloads"][name] = {
                    "rows": rows,
                    "stages": {stage: figures and {
                        key: round(statistics.median(values), 2 if key == "peak_rss_mb" else 1)
                        for key, values in figures.items()}
                        for stage, figures in samples[label].items()},
                }
    for label, report in reports.items():
        path = Path(args.out) / f"BENCH_{label}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
