import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_bench.py"
STAGES = ["load_config", "reference_amplitudes", "transmission_rates_grid",
          "build_estimation_stack", "reference_yields", "_estimate_core",
          "SweepTable.summaries", "SweepTable.check", "_g12.print_rows", "start_up", "cli.main"]


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
            for stage, times in workload["stages"].items():
                assert list(times) == ["first_us"] + (["warm_us"] if stage != "start_up" else [])
                assert all(us > 0.0 for us in times.values())
