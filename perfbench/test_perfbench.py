"""Tests of the benchmark itself: tracer arithmetic, the gate, workloads.

Run with: python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from check import ReferenceChain, check_table, read_table  # noqa: E402
from tracer import LAYER_FUNCTIONS, Tracer  # noqa: E402

from mdiqkd.cli import main as cli_main  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # clock reads: outer start, mid start, leaf start, leaf end, mid end,
    # second leaf start/end (called from outer), outer end
    ticks = iter([0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("m.leaf", lambda: None)
    mid = tracer.wrap("m.mid", lambda: leaf())

    def body():
        mid()
        leaf()

    tracer.wrap("m.outer", body)()
    totals = tracer.totals()
    assert totals["m.leaf"] == (2, 3.0 + 1.0)
    assert totals["m.mid"] == (1, 6.0 - 3.0)
    assert totals["m.outer"] == (1, 10.0 - 6.0 - 1.0)


def test_escaped_exception_counts_once():
    tracer = Tracer()

    def fail():
        raise KeyError("x")

    inner = tracer.wrap("m.inner", fail)
    outer = tracer.wrap("m.outer", lambda: inner())
    with pytest.raises(KeyError):
        outer()
    assert tracer.error_classes() == {"KeyError": 1}


TINY = workloads.Workload(
    "tiny", "loss", "csv", eps_values=(1e-6,), delta_values=(0.05,),
    start=0.3, step=1.0, n_points=13,
)


def _emit(workload, tmp_path):
    import yaml

    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(workload.config()))
    out = tmp_path / "table"
    assert cli_main(["--config", str(config), "--sweep", workload.sweep,
                     "--out", str(out)]) == 0
    return out


def _rewrite_row(path, out_format, index, edit):
    lines = path.read_text().splitlines()
    line_no = index + (1 if out_format == "csv" else 0)  # skip the CSV header
    if out_format == "csv":
        cells = lines[line_no].split(",")
        cells[3] = edit(cells[3])  # key_rate column
        lines[line_no] = ",".join(cells)
    else:
        obj = json.loads(lines[line_no])
        obj["key_rate"] = float(edit(repr(obj["key_rate"])))
        lines[line_no] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("out_format", ["csv", "json-lines"])
def test_gate_counts_corrupted_tables_as_failed(tmp_path, out_format):
    workload = workloads.Workload(**{**TINY.__dict__, "out_format": out_format})
    reference = ReferenceChain(workload)
    path = _emit(workload, tmp_path)
    attempted, failures = check_table(workload, path, reference, seed=0)
    assert attempted == 13 + 1 and failures == {}

    pristine = path.read_text()
    _rewrite_row(path, out_format, 2, lambda v: "-" + v)
    _, failures = check_table(workload, path, reference, seed=0)
    assert 2 in failures and set(failures) <= {2, 13}  # row, and the revival it fakes

    # zeroing the last positive row moves the cutoff: the recompute of
    # the neighbouring rows and the summary both catch it
    path.write_text(pristine)
    rows, _ = read_table(path, out_format, "loss_db")
    last = max(i for i, row in enumerate(rows) if row["key_rate"] > 0.0)
    assert 0 < last < 12
    _rewrite_row(path, out_format, last, lambda v: "0")
    _, failures = check_table(workload, path, reference, seed=0)
    assert last in failures and 13 in failures

    path.write_text(pristine)
    lines = pristine.splitlines()
    del lines[5 + (1 if out_format == "csv" else 0)]
    path.write_text("\n".join(lines) + "\n")
    _, failures = check_table(workload, path, reference, seed=0)
    assert 5 in failures and 12 in failures  # shifted rows, then a missing one


def test_gate_compares_sampled_rows_with_the_stored_reference(tmp_path):
    # a change inside the library chain agrees with its own recompute;
    # only the values stored from a known-good commit can catch it
    reference = ReferenceChain(TINY)
    path = _emit(TINY, tmp_path)
    rows, summaries = read_table(path, "csv", "loss_db")
    assert rows[0]["key_rate"] > 0.0
    stored = {"summaries": summaries,
              "rows": {"0": {k: rows[0][k] for k in ("key_rate", "e_zz", "e_xx")}}}
    assert check_table(TINY, path, reference, seed=0, stored=stored)[1] == {}

    stored["rows"]["0"]["key_rate"] *= 1.01
    _, failures = check_table(TINY, path, reference, seed=0, stored=stored)
    assert set(failures) == {0}


def test_workloads_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.make(name, 7), workloads.make(name, 7)
        assert a == b and a.config() == b.config()
        assert a.expected_rows() == b.expected_rows()
        assert workloads.make(name, 8) != a


def test_traced_worker_profiles_without_changing_the_table(tmp_path):
    import yaml

    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(TINY.config()))
    runs = {}
    for trace in ("0", "1"):
        out = tmp_path / f"table-{trace}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(config), str(out), "loss", trace],
            capture_output=True, text=True, timeout=120, check=True)
        runs[trace] = (json.loads(proc.stdout.splitlines()[-1]), out.read_bytes())
    assert runs["0"][1] == runs["1"][1]
    assert all(run["cal_s"] > 0.0 for run, _ in runs.values())
    traced = runs["1"][0]
    assert set(LAYER_FUNCTIONS) <= set(traced["wrapped"])
    calls = {name: v[0] for name, v in traced["trace"]["functions"].items()}
    assert calls["pauli_core.build_S_matrix"] == 2 * 13
    assert traced["trace"]["distinct"]["channel.build_bsm_povm"] == 13
    assert traced["trace"]["distinct"]["pauli_core.build_S_matrix"] == 1
