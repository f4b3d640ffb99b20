"""The documented entry points run: every demo script and the README quick start."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _readme_quick_start():
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_and_readme_quick_start_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # rate_vs_loss.py writes its table to the cwd
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 5
    for demo in demos:
        runpy.run_path(str(demo), run_name="__main__")
    assert (tmp_path / "rate_vs_loss.csv").read_text().startswith("loss_db,")

    capsys.readouterr()
    exec(compile(_readme_quick_start(), "README.md", "exec"), {})
    key_rate, e_zz, e_xx = map(float, capsys.readouterr().out.split())
    assert key_rate > 0.0 and 0.0 < e_zz < e_xx < 0.5
