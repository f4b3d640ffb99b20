"""A table's bytes do not depend on the BLAS kernel that numpy's OpenBLAS runs.

OpenBLAS picks its kernel for the CPU when it loads, and reads
OPENBLAS_CORETYPE, in the environment of the process that loads it, to
force another. Each kernel orders and fuses the sums of a product in its
own way, so a number that passed through BLAS or LAPACK could change in
its last bits with the kernel. Under a numpy built on another BLAS the
variable does nothing and the tables agree trivially.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import gate_tables  # noqa: E402

# the CPU's own kernel, one with FMA and one without
KERNELS = (None, "Haswell", "Nehalem")


def test_gate_tables_are_identical_under_every_openblas_kernel(tmp_path):
    # the 18 tables of the table-identity gate, and their warnings, written
    # by one fresh process per kernel, byte for byte
    jobs = gate_tables.configs()
    for kernel in KERNELS:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        gate_tables.write(ROOT / "src", jobs, tmp_path / str(kernel),
                          dict(env, OPENBLAS_CORETYPE=kernel) if kernel else env)
    assert len(list((tmp_path / "None").iterdir())) == 2 * len(jobs) == 36
    # the writer keeps each warning: the edge loss tables clamp omega_ref_upper
    warned = sorted(p.stem for p in (tmp_path / "None").glob("*.warnings") if p.read_text())
    assert warned == ["edge-loss-csv", "edge-loss-json-lines"]
    for kernel in KERNELS[1:]:
        assert gate_tables.compare(tmp_path / "None", tmp_path / kernel) == 0, kernel
