"""The table-identity gate's comparer, on small output trees that no table run wrote."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import gate_tables  # noqa: E402

# what a tree's writer and demos leave: a table, its warnings, a demo's
# stdout and the file the demo writes
OUTPUTS = {"loss-csv": b"loss_db,key_rate\n0,0.25\n1,0.125\n",
           "loss-csv.warnings": b"UserWarning: omega_ref_upper = 1.5 clamped to 1\n",
           "relay.stdout": b"relay\n", "rate_vs_loss.csv": b"loss_db\n0\n"}


def _trees(tmp_path, changed=None):
    """(base, head) directories of OUTPUTS; the head's files named in changed hold its bytes."""
    for tree, outputs in (("base", {}), ("head", changed or {})):
        (tmp_path / tree).mkdir()
        for name, data in {**OUTPUTS, **outputs}.items():
            (tmp_path / tree / name).write_bytes(data)
    return tmp_path / "base", tmp_path / "head"


def test_identical_outputs_pass_and_each_is_reported(tmp_path, capsys):
    assert gate_tables.compare(*_trees(tmp_path)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "loss-csv: identical, 3 lines", "loss-csv: identical warnings, 1 lines",
        "rate_vs_loss.csv: identical, 2 lines", "relay: identical stdout, 1 lines"]


def test_a_demo_the_base_does_not_have_is_named_and_skipped(tmp_path, capsys):
    base, head = _trees(tmp_path)
    (head / "new.stdout").write_bytes(b"new\n")
    assert gate_tables.compare(base, head) == 0
    assert "new: no such demo in the base" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name, data, line", [
    ("loss-csv", b"loss_db,key_rate\n0,0.25\n1,0.126\n",
     "loss-csv: 1 base lines differ from 1 head lines"),
    ("loss-csv.warnings", b"UserWarning: omega_ref_upper = 1.6 clamped to 1\n",
     "loss-csv: warnings differ; base:"),
    ("relay.stdout", b"relay.\n", "relay: stdout differs"),
    ("rate_vs_loss.csv", b"loss_db\n0\n1\n",
     "rate_vs_loss.csv: 0 base lines differ from 1 head lines"),
], ids=["table-byte", "warning-line", "demo-stdout", "demo-file"])
def test_a_changed_output_fails_and_is_named(tmp_path, capsys, name, data, line):
    assert gate_tables.compare(*_trees(tmp_path, {name: data})) == 1
    assert line in capsys.readouterr().out.splitlines()


def test_a_table_missing_from_the_base_fails_and_is_named(tmp_path, capsys):
    base, head = _trees(tmp_path)
    (base / "loss-csv").unlink()
    assert gate_tables.compare(base, head) == 1
    assert "loss-csv: missing in the base" in capsys.readouterr().out.splitlines()
