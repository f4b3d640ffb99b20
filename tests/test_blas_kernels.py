"""A table's bytes do not depend on the BLAS kernel that numpy's OpenBLAS runs.

OpenBLAS picks its kernel for the CPU when it loads, and reads
OPENBLAS_CORETYPE, in the environment of the process that loads it, to
force another. Each kernel orders and fuses the sums of a product in its
own way, so a number that passed through BLAS or LAPACK could change in
its last bits with the kernel. Under a numpy built on another BLAS the
variable does nothing and the tables agree trivially.
"""

import os
import subprocess
import sys
from pathlib import Path

import yaml

import mdiqkd.sweep

ROOT = Path(__file__).resolve().parent.parent
# the CPU's own kernel, one with FMA and one without
KERNELS = (None, "Haswell", "Nehalem")


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def test_workload_tables_are_identical_under_every_openblas_kernel(tmp_path):
    # every benchmark workload's table at seeds 0 and 31, in its own format,
    # written by one fresh process per kernel, byte for byte
    workloads = _workloads()
    names, argvs = [], []
    for workload_name in workloads.WORKLOADS:
        for seed in (0, 31):
            workload = workloads.make(workload_name, seed)
            name = f"{workload_name}-{seed}"
            config = tmp_path / f"{name}.yaml"
            config.write_text(yaml.safe_dump(workload.config(), sort_keys=True))
            names.append(name)
            argvs.append(["--config", str(config), "--sweep", workload.sweep, "--out", name])
    code = (
        "import sys\n"
        "import mdiqkd.cli\n"
        f"for argv in {argvs!r}:\n"
        "    argv[-1] = sys.argv[1] + '-' + argv[-1]\n"
        "    assert mdiqkd.cli.main(argv) == 0, argv\n"
    )
    src = os.path.dirname(os.path.dirname(mdiqkd.sweep.__file__))
    for kernel in KERNELS:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / str(kernel))],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    assert len(names) == 6
    for name in names:
        default = (tmp_path / f"None-{name}").read_bytes()
        for kernel in KERNELS[1:]:
            assert (tmp_path / f"{kernel}-{name}").read_bytes() == default, (name, kernel)
