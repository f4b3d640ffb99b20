"""Check that a change writes its base's tables, warnings and demo output byte for byte.

Usage:
    python3 tools/gate_tables.py --base DIR [--head DIR]

Both trees (--head defaults to this checkout) write the same 18 tables,
from configs that the head builds (`configs`): every benchmark workload
of perfbench/workloads.py at seeds 0 and 31 in the workload's format,
two edge configs with error rows on both axes in both formats, two big
CSV tables of more than 16384 rows through the chain, one per axis, and
the head README's example config on both axes. Each tree writes them
from one fresh process on its own src (`write`), with each table's
warnings as `Category: message` lines, and runs each demo of its own in
that output directory, so demos/rate_vs_loss.py leaves its
rate_vs_loss.csv beside the demos' stdout. `compare` then prints one
line per output of the head and exits 1 if any differs from the base's.
"""

import argparse
import difflib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# error rows, which the workload tables do not hold: a channel without
# dark counts has no signal beyond 3051 dB, deltas of pi/4 and of
# pi/2 - 1e-9 (cond(S) 8.3e16) are over the cond(S) ceiling, a repeated
# delta, a negative one and -0.0 cover the signs, and eps 0 and 1 sit at
# the ends of the grids
EDGE = {
    "channel": {"p_d": 0.0},
    "sweep": {
        "eps": [0.0, 1.0e-6, 1.0],
        "delta": [0.0, 0.7853981633974483, 0.126, 0.0, -0.126, -0.0, 1.5707963257948965],
        "loss": {"start": 3000.0, "stop": 3300.0, "step": 1.5},
        "frequency": {"start_ghz": 0.1, "stop_ghz": 4.0, "step_ghz": 0.05, "loss_db": 3000.0},
    },
}
# quoted error messages: under a lifted ceiling the delta 1.4e-7 short of
# pi/2 (cond(S) 3.7e14) collapses a virtual state, and CSV quotes the
# comma of its message
LIFTED = {
    "estimation": {"cond_ceiling": 1.0e300},
    "sweep": {
        "eps": [0.0, 1.0e-6],
        "delta": [0.126, 1.5707961867948965, 0.0],
        "loss": {"start": 0.0, "stop": 20.0, "step": 0.5},
        "frequency": {"loss_db": 5.0},
    },
}
# big tables, CSV: 3 eps x 3 deltas (pi/4 refused) over 0-40 dB at
# 0.01 dB, 36009 rows, 24006 through the chain; 6 deltas (one refused)
# over 0.1-4.0 GHz at 0.001 GHz, 23406 rows, 19505 through the chain.
# Both pass 16384 chain rows, above which the chain once ran in blocks
BIG = {
    "loss": {"sweep": {"eps": [1.0e-7, 1.0e-6, 1.0e-5],
                       "delta": [0.0, 0.7853981633974483, 0.126],
                       "loss": {"start": 0.0, "stop": 40.0, "step": 0.01}}},
    "frequency": {"sweep": {"delta": [0.0, 0.05, 0.7853981633974483, 0.126, 0.2, 0.3],
                            "frequency": {"start_ghz": 0.1, "stop_ghz": 4.0,
                                          "step_ghz": 0.001, "loss_db": 5.0}}},
}

# the body of the writer's process: argv is the output directory, then
# (name, config path, sweep) per table. Every warning is recorded
# ("always") and kept by its category and message, which leave out the
# file and line
_WRITER = """\
import sys
import warnings
from pathlib import Path

import mdiqkd.cli

out, jobs = Path(sys.argv[1]), sys.argv[2:]
for name, config, sweep in zip(jobs[::3], jobs[1::3], jobs[2::3]):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if mdiqkd.cli.main(["--config", config, "--sweep", sweep, "--out", str(out / name)]):
            sys.exit(f"{name}: mdiqkd-sweep failed")
    (out / f"{name}.warnings").write_text("".join(
        f"{w.category.__name__}: {w.message}\\n" for w in caught))
"""


def configs(root=ROOT):
    """[(name, YAML text, sweep)] of the gate's 18 tables, from the tree at root."""
    import yaml

    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    built = []
    for name in workloads.WORKLOADS:
        for seed in (0, 31):
            workload = workloads.make(name, seed)
            built.append((f"{name}-{seed}", workload.config(), workload.sweep))
    for name, config in (("edge", EDGE), ("lifted", LIFTED)):
        for sweep in ("loss", "frequency"):
            for fmt in ("csv", "json-lines"):
                built.append((f"{name}-{sweep}-{fmt}", dict(config, output={"format": fmt}), sweep))
    built += [(f"big-{sweep}-csv", config, sweep) for sweep, config in BIG.items()]
    # the README's hand-written config, with comments and flow collections
    readme = (root / "README.md").read_text().split("```yaml\n", 1)[1].split("```", 1)[0]
    return ([(name, yaml.safe_dump(config, sort_keys=True), sweep)
             for name, config, sweep in built]
            + [(f"readme-{sweep}", readme, sweep) for sweep in ("loss", "frequency")])


def _env(src, env):
    """env with src first on PYTHONPATH."""
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")])))


def write(src, jobs, out, env=os.environ):
    """Write each (name, YAML text, sweep) table of jobs, and its warnings, into out.

    One fresh process on the package at src runs cli.main on them all,
    under env; it fails, and so does this, if a table is not written.
    """
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for name, text, sweep in jobs:
            Path(tmp, f"{name}.yaml").write_text(text)
            argv += [name, str(Path(tmp, f"{name}.yaml")), sweep]
        subprocess.run([sys.executable, "-c", _WRITER, str(out.resolve()), *argv], cwd=tmp,
                       env=_env(src, env), stdout=subprocess.DEVNULL, check=True)


def _changed_lines(old, new):
    """(base lines, head lines) that the line diff of old and new pairs as changed."""
    matcher = difflib.SequenceMatcher(None, old.splitlines(), new.splitlines(), autojunk=False)
    spans = [(i2 - i1, j2 - j1) for tag, i1, i2, j1, j2 in matcher.get_opcodes() if tag != "equal"]
    return sum(b for b, _ in spans), sum(h for _, h in spans)


def compare(base, head):
    """Print one line per output file of head against base's; 1 if any differs, else 0.

    A table, warnings or other file that the base lacks differs; a demo's
    stdout that it lacks is a demo the base does not have, and is named.
    """
    status = 0
    for path in sorted(head.iterdir()):
        kind = path.suffix[1:] if path.suffix in (".warnings", ".stdout") else ""
        label = path.stem if kind else path.name
        if not (base / path.name).exists():
            print(f"{label}: no such demo in the base" if kind == "stdout"
                  else f"{path.name}: missing in the base")
            status |= kind != "stdout"
            continue
        old, new = (base / path.name).read_bytes(), path.read_bytes()
        if old == new:
            lines = new.count(b"\n")
            print(f"{label}: identical {kind}".rstrip() + f", {lines} lines")
        elif kind == "warnings":
            print(f"{label}: warnings differ; base:\n{old.decode()}head:\n{new.decode()}", end="")
        elif kind == "stdout":
            print(f"{label}: stdout differs")
        else:
            print("{}: {} base lines differ from {} head lines".format(
                label, *_changed_lines(old, new)))
        status |= old != new
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="the base tree's checkout")
    parser.add_argument("--head", type=Path, default=ROOT,
                        help="the head tree's checkout (default: this one)")
    args = parser.parse_args(argv)
    jobs = configs(args.head)
    with tempfile.TemporaryDirectory() as tmp:
        for tree in ("head", "base"):
            root, out = getattr(args, tree).resolve(), Path(tmp, tree)
            write(root / "src", jobs, out)
            for demo in sorted(root.glob("demos/*.py")):
                with open(out / f"{demo.stem}.stdout", "wb") as fh:
                    subprocess.run([sys.executable, str(demo)], cwd=out, stdout=fh,
                                   env=_env(root / "src", os.environ), check=True)
        return compare(Path(tmp, "base"), Path(tmp, "head"))


if __name__ == "__main__":
    sys.exit(main())
