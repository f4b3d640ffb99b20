"""The documented entry points run: the demos and the README quick start, config and imports."""

import re
import runpy
from pathlib import Path

import pytest

from mdiqkd.cli import build_parser, main
from mdiqkd.sweep import CONFIG_KEYS, load_config

ROOT = Path(__file__).resolve().parent.parent


def _readme_block(heading, language):
    """The first fenced block of the given language under a README heading."""
    section = (ROOT / "README.md").read_text().split(heading, 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_demos_and_readme_quick_start_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # rate_vs_loss.py writes its table to the cwd
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 5
    for demo in demos:
        runpy.run_path(str(demo), run_name="__main__")
    assert (tmp_path / "rate_vs_loss.csv").read_text().startswith("loss_db,")

    capsys.readouterr()
    exec(compile(_readme_block("## Library quick start", "python"), "README.md", "exec"), {})
    key_rate, e_zz, e_xx = map(float, capsys.readouterr().out.split())
    assert key_rate > 0.0 and 0.0 < e_zz < e_xx < 0.5


def test_readme_config_serves_both_axes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the config writes rates.csv to the cwd
    (tmp_path / "config.yaml").write_text(_readme_block("## Command line", "yaml"))
    for sweep, header in (("loss", "loss_db,"), ("frequency", "frequency_ghz,")):
        assert main(["--config", "config.yaml", "--sweep", sweep]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "rates.csv").read_text().startswith(header)


def _readme_table(header):
    """The rows of the README table under the given header line, as lists of cells."""
    body = (ROOT / "README.md").read_text().split(header + "\n", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in body.splitlines()[1:]]


def test_readme_names_every_config_key(tmp_path, capsys):
    # the key table is CONFIG_KEYS: key, the axis that reads it, its flag
    axes = {None: "both axes", "loss": "`--sweep loss`", "frequency": "`--sweep frequency`"}
    expected = [[f"`{key}`", axes[axis], f"`{flag}`" if flag else ""]
                for key, (*_, flag, axis) in CONFIG_KEYS.items()]
    assert _readme_table("| key | read by | flag |") == expected
    # the flag table lists exactly the flags of the parser
    flags = [re.findall(r"--[\w-]+", row[0]) for row in _readme_table("| flag | meaning |")]
    assert main(["--help"]) == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert [flag for [flag] in flags] == re.findall(r"\[(--[\w-]+)", usage)
    assert [flag for [flag] in flags] == list(build_parser())
    # no sweep reads the channel's loss, so the schema has no such key
    path = tmp_path / "cfg.yaml"
    path.write_text("channel: {loss_db: 30.0}\n")
    with pytest.raises(ValueError, match="unknown config keys: channel.loss_db"):
        load_config(str(path))


def test_every_import_line_the_readme_quotes_runs():
    readme = (ROOT / "README.md").read_text()
    # a quoted line may wrap across lines of the README
    lines = [" ".join(m.split()) for m in re.findall(r"`(from\s+mdiqkd[^`]*)`", readme)]
    assert len(lines) >= 2
    for line in lines:
        exec(compile(line, "README.md", "exec"), {})
