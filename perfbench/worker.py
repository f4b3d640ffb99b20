"""Run one sweep table in a fresh process and report its timings as JSON.

Usage: python3 worker.py CONFIG OUT SWEEP TRACE

A user runs `mdiqkd-sweep` once per process, so every table gets a
fresh interpreter: nothing cached by one table can speed up the next.
The last stdout line is a JSON object with setup_s (import mdiqkd and
load_config), cal_s (the calibration kernel, timed just before and
just after the table), table_s (one cli.main call), rc, rss_mb, table
bytes and, with TRACE=1, the per-layer trace.
"""

import json
import os
import resource
import sys
import time
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CAL_REPEATS = 7


def _kernel():
    # fixed small-matrix work of the same kind as a sweep point: Kronecker
    # products, Pauli traces and a 4x4 solve, driven from Python
    import numpy as np

    pauli = (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]], dtype=complex))
    rho = np.outer([0.8, 0.6], [0.8, 0.6]).astype(complex)
    total = 0.0
    for k in range(50):
        two = np.kron(rho, rho)
        for a in pauli:
            for b in pauli:
                total += float(np.real(np.trace(two @ np.kron(a, b))))
        total += float(np.linalg.solve(2.0 * np.eye(4) + 0.01 * k, np.ones(4))[0])
        total += sum(x * 1e-3 for x in range(20))
    return total


def calibrate():
    """Median time of the fixed kernel: the speed of this CPU right now.

    The host's throughput drifts by up to 1.5x over minutes, and CPU time
    drifts with wall time, so the benchmark divides each table's time by
    the mean of this figure taken in the same process just before and
    just after it.
    """
    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[CAL_REPEATS // 2]


def _peak_rss_mb():
    # VmHWM belongs to this process's own address space; ru_maxrss can
    # carry the spawning parent's peak across exec
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    config_path, out_path, sweep, trace = argv[1:5]
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import mdiqkd.cli
    mdiqkd.sweep.load_config(config_path)
    setup_s = time.perf_counter() - start

    cli_argv = ["--config", config_path, "--sweep", sweep, "--out", out_path]
    result = {"setup_s": setup_s}
    cal_before = calibrate()
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        result["wrapped"] = tracer.install()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            rc = mdiqkd.cli.main(cli_argv)
            result["table_s"] = time.perf_counter() - start
        result["trace"] = {
            "functions": tracer.totals(),
            "distinct": tracer.distinct_counts(),
            "errors": tracer.error_classes(),
            "clamps": sum("yield clamped" in str(w.message) for w in caught),
        }
    else:
        start = time.perf_counter()
        rc = mdiqkd.cli.main(cli_argv)
        result["table_s"] = time.perf_counter() - start
    result["cal_s"] = (cal_before + calibrate()) / 2
    result["rc"] = rc
    result["rss_mb"] = _peak_rss_mb()
    result["bytes"] = os.path.getsize(out_path) if os.path.exists(out_path) else 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
