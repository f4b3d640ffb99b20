"""Regenerate reference/<workload>.json from the default-seed tables.

Usage: python3 perfbench/make_reference.py

A record holds the per-curve cutoff and revival flags and, for the rows
the gate recomputes at the default seed, key_rate, e_zz and e_xx. The
benchmark fails a summary or a row that disagrees. Regenerate only when
a workload's definition changes, from a commit whose tables are known
good.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import yaml  # noqa: E402

import workloads  # noqa: E402
from check import read_table, sample_indices  # noqa: E402
from mdiqkd.cli import main as cli_main  # noqa: E402


def main():
    (HERE / "reference").mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, workloads.DEFAULT_SEED)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.yaml"
            config.write_text(yaml.safe_dump(workload.config(), sort_keys=True))
            out = Path(tmp) / "table"
            if cli_main(["--config", str(config), "--sweep", workload.sweep,
                         "--out", str(out)]) != 0:
                return 1
            rows, summaries = read_table(out, workload.out_format, workload.coordinate_name)
        sampled = {str(i): {k: rows[i][k] for k in ("key_rate", "e_zz", "e_xx")}
                   for i in sample_indices(workload, workloads.DEFAULT_SEED, rows)}
        record = {"workload": name, "seed": workloads.DEFAULT_SEED,
                  "summaries": summaries, "rows": sampled}
        (HERE / "reference" / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
