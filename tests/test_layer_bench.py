import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_bench.py"
STAGES = ["load_config", "reference_amplitudes", "transmission_rates_grid",
          "build_estimation_stack", "reference_yields", "_point_terms", "_row_columns",
          "loss_table/frequency_table", "SweepTable._curves", "SweepTable.check",
          "_g12.print_rows", "start_up", "cli.main"]


def test_layer_bench_times_every_stage_of_two_trees(tmp_path):
    # one fresh process per kind and tree, on a workload of each axis; the
    # second tree is this one again, under another label
    src = str(TOOL.parent.parent / "src")
    subprocess.run([sys.executable, str(TOOL), "--label", "smoke", "--base", "again", src,
                    "--out", str(tmp_path), "--workloads", "curves_short,frequency_scan",
                    "--processes", "1", "--repeats", "2"],
                   check=True, capture_output=True, text=True)
    for label in ("smoke", "again"):
        report = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert report["label"] == label and report["seed"] == 0
        assert {"python", "numpy", "cpu"} <= report["provenance"].keys()
        assert list(report["workloads"]) == ["curves_short", "frequency_scan"]
        for workload in report["workloads"].values():
            assert list(workload["stages"]) == STAGES
            for stage, figures in workload["stages"].items():
                # a stage's first call and its VmHWM growth; start-up and the
                # whole cli.main also scaled by perfbench's calibration kernel,
                # and cli.main's rows per second of that
                keys = {"start_up": ["first_us", "first_cal_us"],
                        "cli.main": ["first_us", "warm_us", "peak_rss_mb", "first_cal_us",
                                     "rows_per_s"]}
                assert list(figures) == keys.get(stage, ["first_us", "warm_us", "hwm_growth_kb"])
                assert figures.get("hwm_growth_kb", 0) >= 0
                assert all(v > 0.0 for k, v in figures.items() if k != "hwm_growth_kb")
            # perfbench's peak_rss_mb: the process's VmHWM, numpy loaded
            assert 10.0 < workload["stages"]["cli.main"]["peak_rss_mb"] < 1000.0
