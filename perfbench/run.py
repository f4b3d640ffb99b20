"""Sweep benchmark: end-to-end table metrics and a per-layer call profile.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]   # every workload, both modes

Each table is one `mdiqkd.cli.main` call in a fresh worker process
(worker.py), repeated until --seconds have passed. With --trace 0 the
last stdout line reports the end-to-end metrics; with --trace 1 the
workers alternate untraced and traced tables and the line reports the
per-layer metrics. Every table is parsed back and checked (check.py);
`correct`, `attempted` and `failed` count table rows over all tables.
Run from the repository root; all files go to a temporary directory
under .perfbench_tmp/ that is removed afterwards.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCE_DIR = HERE / "reference"

MIN_TABLES = 3          # per mode: untraced tables, or traced + untraced pairs
# worker.calibrate() on the VM that defined the benchmark (2 vCPUs,
# Python 3.11.7, numpy 2.4.6); times are reported at that speed
CAL_REFERENCE_S = 0.030
WORKER_TIMEOUT_S = 150
RUN_SECONDS = 30        # run_seconds in BENCHMARK.json

import workloads  # noqa: E402  (sibling module; needs no package path)
from tracer import DISTINCT_ARGS, LAYER_FUNCTIONS, LAYERS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "table_s": "s", "rows_per_s": "1/s",
                    "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong table)."""


def _run_worker(workload, config_path, tmp, index, traced):
    ext = "csv" if workload.out_format == "csv" else "jsonl"
    out = tmp / f"table-{index}.{ext}"
    cmd = [sys.executable, str(WORKER), str(config_path), str(out), workload.sweep,
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    sample = json.loads(lines[-1])
    # scale to the reference speed: the host's throughput drifts, and the
    # kernel timed in the same process around the table tracks it
    speed = CAL_REFERENCE_S / sample["cal_s"]
    for key in ("setup_s", "table_s"):
        sample["wall_" + key] = sample[key]
        sample[key] *= speed
    if traced:
        functions = sample["trace"]["functions"]
        for name, (calls, self_s) in functions.items():
            functions[name] = (calls, self_s * speed)
    sample["traced"] = traced
    sample["path"] = out
    return sample


def _measure(workload, config_path, tmp, seconds, trace):
    """Run tables until --seconds pass; keep one file per distinct table."""
    samples, kept = [], {}
    start = time.perf_counter()
    while True:
        traced = trace and len(samples) % 2 == 1
        sample = _run_worker(workload, config_path, tmp, len(samples), traced)
        samples.append(sample)
        path = sample["path"]
        if path.exists():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            sample["digest"] = digest
            if digest in kept:
                path.unlink()
            else:
                kept[digest] = path
        elapsed = time.perf_counter() - start
        needed = 2 * MIN_TABLES if trace else MIN_TABLES
        if len(samples) >= needed and elapsed >= seconds:
            return samples, kept


def _verify(workload, seed, samples, kept):
    """attempted/failed rows over every table, each distinct table checked once."""
    from check import ReferenceChain, check_table

    stored = None
    if seed == workloads.DEFAULT_SEED:
        stored = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())
    reference = ReferenceChain(workload)
    verdicts = {digest: check_table(workload, path, reference, seed, stored)
                for digest, path in kept.items()}
    rows = workload.grid_sizes()["rows"] + len(workload.curves())
    reasons = [f"row {k}: {v}" for _, failures in verdicts.values()
               for k, v in list(failures.items())[:5]]
    failed = 0
    for sample in samples:
        if sample["rc"] != 0 or "digest" not in sample:
            failed += rows
            reasons.append(f"table {sample['path'].name}: cli exit code {sample['rc']}")
        else:
            failed += min(len(verdicts[sample["digest"]][1]), rows)
    return rows * len(samples), failed, reasons


def _end_to_end(workload, samples):
    untraced = [s for s in samples if not s["traced"]]
    table_s = statistics.median(s["table_s"] for s in untraced)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "table_s": table_s,
        "rows_per_s": workload.grid_sizes()["rows"] / table_s,
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in untraced),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def _per_layer(samples, failed_share):
    """Per-table layer metrics from the traced workers."""
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    functions = [s["trace"]["functions"] for s in traced]
    first = traced[0]["trace"]
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in sorted(set(LAYER_FUNCTIONS).union(*functions)):
        calls = functions[0].get(name, (0, 0.0))[0]
        self_s = statistics.median(f.get(name, (0, 0.0))[1] for f in functions)
        layer_self[name.split(".")[0]] += self_s
        if name in LAYER_FUNCTIONS:
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
            metrics[f"{name}.self_us_per_call"] = (self_s / calls * 1e6 if calls else 0.0, "us")
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
    for name in DISTINCT_ARGS:
        calls = functions[0].get(name, (0, 0.0))[0]
        metrics[f"{name}.distinct_ratio"] = (
            first["distinct"][name] / calls if calls else 0.0, "ratio")
    metrics["channel.reference_yields.clamps"] = (first["clamps"], "count")
    for cls in ("IllConditionedError", "NoSignalError"):
        metrics[f"estimator.errors.{cls}"] = (first["errors"].get(cls, 0), "count")
    metrics["sweep.emit_table.bytes"] = (statistics.median(s["bytes"] for s in samples), "B")
    metrics["trace.overhead_s"] = (
        statistics.median(s["table_s"] for s in traced)
        - statistics.median(s["table_s"] for s in untraced), "s")
    metrics["failed_row_share"] = (failed_share, "ratio")
    absent = sorted(set(LAYER_FUNCTIONS) - set(traced[0]["wrapped"]))
    return metrics, absent


def provenance(workload, seed):
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "seed": seed,
        "grid": workload.grid_sizes(),
    }


def run(name, seed, seconds, trace):
    """Measure one workload; return (result line dict, report lines)."""
    import yaml

    workload = workloads.make(name, seed)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch, prefix=f"{name}-") as tmp:
            tmp = Path(tmp)
            config_path = tmp / "config.yaml"
            config_path.write_text(yaml.safe_dump(workload.config(), sort_keys=True))
            samples, kept = _measure(workload, config_path, tmp, seconds, trace)
            attempted, failed, reasons = _verify(workload, seed, samples, kept)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass
    if trace:
        metrics, absent = _per_layer(samples, failed / attempted)
    else:
        metrics, absent = _end_to_end(workload, samples), []

    untraced = [s for s in samples if not s["traced"]]
    timed = [s["table_s"] for s in untraced]
    wall = [s["wall_table_s"] for s in untraced]
    report = [
        "provenance " + json.dumps(provenance(workload, seed), sort_keys=True),
        f"{name}: {len(samples)} tables ({len(timed)} untraced), table_s over "
        f"n={len(timed)}: median {statistics.median(timed):.4f} s, "
        f"min {min(timed):.4f} s, max {max(timed):.4f} s; wall time median "
        f"{statistics.median(wall):.4f} s, min {min(wall):.4f} s, max {max(wall):.4f} s; "
        f"cal_s median {statistics.median(s['cal_s'] for s in untraced):.5f} s",
    ]
    if absent:
        report.append("absent layer functions: " + ", ".join(absent))
    report += [f"{name} {metric} {value:.6g} {unit}"
               for metric, (value, unit) in metrics.items()]
    report += [f"FAILED {r}" for r in reasons[:20]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload; omit to report every workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "mdiqkd" / "__init__.py").is_file():
        print(f"error: no mdiqkd sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload is not None:
            result, report = run(args.workload, args.seed, args.seconds, args.trace)
            print("\n".join(report))
            print(json.dumps(result))
            return 0
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                result, report = run(name, args.seed, args.seconds, trace)
                print("\n".join(report))
                print(f"{name} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}\n")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
